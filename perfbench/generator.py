"""Seeded su(2) connections on the flat 4-torus, written as scenario files.

Each connection component carries a fixed number of band-1 Fourier modes.
A mode is a frequency pair (k, -k) with one 0-based axis index and a complex
amplitude c at k and its conjugate at -k, so every component is a real
1-form.  The frequencies of one connection are a fixed pattern moved by a
random symmetry of the lattice (a signed permutation of the axes, applied
to the frequencies and to the axis indices alike); the amplitudes are drawn
freely.  A lattice symmetry of the flat unit torus maps the problem onto an
isometric one, so every seed asks for nearly the same work (only accidental
cancellations differ, by under 1% in frequency keys) and seeds differ in
values.  Amplitudes are fixed-precision decimal strings, so one seed always
yields byte-identical scenario JSON.
"""

import itertools
import json
import random

N_AXES = 4
ALGEBRA_DIM = 3
PATTERN_SEED = "bundlehodge-perfbench/pattern"


def _canonical(key):
    """The representative of the pair {k, -k} whose first nonzero entry is positive."""
    first = next(k for k in key if k != 0)
    return tuple(key) if first > 0 else tuple(-k for k in key)


def _half_box():
    """One representative of each nonzero +/- pair in the band-1 box."""
    return sorted(
        {_canonical(key) for key in itertools.product((-1, 0, 1), repeat=N_AXES) if any(key)}
    )


def mode_pattern(modes):
    """Per-component (frequency pair, axis) modes shared by every seed."""
    rng = random.Random(f"{PATTERN_SEED}/{modes}")
    pairs = _half_box()
    return [
        [(key, rng.randrange(N_AXES)) for key in sorted(rng.sample(pairs, modes))]
        for _ in range(ALGEBRA_DIM)
    ]


def connection_config(seed, index, modes):
    """Scenario dictionary for connection ``index`` of one seed."""
    rng = random.Random(f"bundlehodge-perfbench/{seed}/{index}")
    perm = list(range(N_AXES))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(N_AXES)]
    components = []
    for comp, pattern in enumerate(mode_pattern(modes)):
        moved = sorted(
            (_canonical([signs[a] * key[perm[a]] for a in range(N_AXES)]), perm.index(axis))
            for key, axis in pattern
        )
        entries = []
        for key, axis in moved:
            re = f"{rng.uniform(-0.5, 0.5):.4f}"
            im = rng.uniform(-0.5, 0.5)
            entries.append([list(key), [axis], re, f"{im:.4f}"])
            entries.append([[-k for k in key], [axis], re, f"{-im:.4f}"])
        components.append([comp, {"degree": 1, "band": 1, "entries": entries}])
    return {
        "name": f"t4_su2_gen_s{seed}_c{index}",
        "geometry": {"dim": N_AXES},
        "algebra": {"name": "su2", "scale": "0.2"},
        "connection": {"components": components},
        "polynomial": {"kind": "second_chern", "normalization": "1.0"},
        "band": 1,
        "degree": 3,
        "k_max": 6,
        "tolerances": {"tau_formal": "1e-10", "tau_rank": "1e-10", "tau_spec": "1e-8"},
        "output_dir": "out",
        "seed": seed,
    }


def scenario_text(config):
    return json.dumps(config, indent=1) + "\n"
