"""The exact block split of sparse systems against dense oracles."""

import importlib.util
import json
import pathlib
import types
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from bundlehodge import adiabatic_ss
from bundlehodge.adiabatic_ss import (
    PageRecursion,
    Tolerances,
    _block_lstsq,
    _blocks,
    _boxes,
    _correction_system,
    _gather,
    _solve_columns,
    galerkin_polynomial,
    near_zero_count,
)
from bundlehodge.cli import main as cli_main
from bundlehodge.errors import ConfigError, SolverFailure
from bundlehodge.harness import Scenario, load_scenario, packaged_scenario_path

from bigraded_reference import (
    assert_block_lstsq_matches_reference,
    csr_bytes,
    reference_correction_system,
    reference_galerkin_polynomial,
)

# block shapes (rows, columns); the empty ones are zero columns and zero rows
RECT_SHAPES = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (4, 4)]
SQUARE_SIZES = [1, 2, 3, 4, 5]
# block scales: a rounding-level block beside an O(1) one falls under the
# whole-matrix cut of lstsq(rcond=None), not under a cut relative to itself
SCALES = [1.0, 1.0, 1e-2, 1e-17]


def _bits(draw, count):
    """An integer from boolean draws only: hypothesis mixes constants read
    from the loaded source files into integer draws, never into booleans."""
    value = 0
    for _ in range(count):
        value = 2 * value + draw(st.booleans())
    return value


def _random_block(rng, nr, nc, deficient):
    """A dense complex block; rank-deficient ones have rank below min(nr, nc)."""
    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rank = min(nr, nc)
    if deficient and rank > 1:
        rank = 1 + int(rng.integers(rank - 1))
        return gaussian(nr, rank) @ gaussian(rank, nc)
    return gaussian(nr, nc)


def _permuted(blocks, rng, square=False):
    """The block-diagonal matrix of ``blocks`` under hidden row and column
    permutations (one shared permutation when ``square``)."""
    mat = scipy.sparse.block_diag(
        [scipy.sparse.csr_matrix(b) if b.size else scipy.sparse.csr_matrix(b.shape) for b in blocks]
    ).tocsr()
    rows = rng.permutation(mat.shape[0])
    cols = rows if square else rng.permutation(mat.shape[1])
    return mat[rows][:, cols].tocsr()


@st.composite
def rectangular_systems(draw):
    """(sparse matrix, right-hand sides) with repeated, rank-deficient and
    empty-sided blocks; consistent right-hand sides when asked."""
    rng = np.random.default_rng(_bits(draw, 16))
    shapes = [RECT_SHAPES[_bits(draw, 4) % len(RECT_SHAPES)] for _ in range(1 + _bits(draw, 3))]
    # repeat one shape so a stacked group holds several blocks
    shapes += [shapes[0]] * _bits(draw, 2)
    blocks = [
        SCALES[_bits(draw, 2)] * _random_block(rng, nr, nc, draw(st.booleans()))
        for nr, nc in shapes
    ]
    mat = _permuted(blocks, rng)
    cols = 1 + _bits(draw, 2)
    if draw(st.booleans()):
        rhs = mat @ (rng.standard_normal((mat.shape[1], cols)) + 0j)
    else:
        rhs = rng.standard_normal((mat.shape[0], cols)) + 1j * rng.standard_normal((mat.shape[0], cols))
    return mat, rhs


@st.composite
def rectangular_systems_with_zero_rows(draw):
    """(matrix, right-hand sides, the same right-hand sides zero on a random subset
    of rows, from none to all) from rectangular_systems, so that some blocks are
    not touched."""
    mat, rhs = draw(rectangular_systems())
    rng = np.random.default_rng(_bits(draw, 16))
    zeroed = rhs.copy()
    zeroed[rng.random(rhs.shape[0]) < _bits(draw, 2) / 3] = 0
    return mat, rhs, zeroed


@st.composite
def hermitian_matrices(draw):
    rng = np.random.default_rng(_bits(draw, 16))
    sizes = [SQUARE_SIZES[_bits(draw, 3) % len(SQUARE_SIZES)] for _ in range(1 + _bits(draw, 3))]
    sizes += [sizes[0]] * _bits(draw, 2)
    blocks = []
    for n in sizes:
        half = _random_block(rng, n, n, draw(st.booleans()))
        blocks.append(half @ half.conj().T if draw(st.booleans()) else half + half.conj().T)
    return _permuted(blocks, rng, square=True)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rectangular_systems())
def test_blocks_partition_the_pattern(system):
    mat, _ = system
    blocks = _blocks(mat)
    rows = np.concatenate([r.ravel() for r, _ in blocks])
    cols = np.concatenate([c.ravel() for _, c in blocks])
    assert np.array_equal(np.sort(rows), np.arange(mat.shape[0]))
    assert np.array_equal(np.sort(cols), np.arange(mat.shape[1]))
    # one group per shape, and the gathered blocks hold every entry
    assert len({(r.shape[1], c.shape[1]) for r, c in blocks}) == len(blocks)
    total = sum(float(np.sum(np.abs(stack) ** 2)) for stack in _gather(mat, blocks))
    assert total == pytest.approx(np.linalg.norm(mat.toarray()) ** 2, rel=1e-12)


def _gather_per_group(mat, rows, cols):
    """One shape group's stacked blocks by fancy indexing, the gather _gather replaces."""
    (count, nr), nc = rows.shape, cols.shape[1]
    sub = scipy.sparse.coo_matrix(mat.tocsr()[rows.ravel()][:, cols.ravel()])
    stack = np.zeros((count, nr, nc), dtype=mat.dtype)
    np.add.at(stack, (sub.row // nr, sub.row % nr, sub.col % nc), sub.data)
    return stack


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rectangular_systems())
def test_one_pass_gather_matches_per_group_gather(system):
    # RECT_SHAPES holds zero rows and zero columns, the (1, 0) and (0, 1) blocks;
    # the second matrix stores every entry v as v, 1e-16 v and -v, whose sum
    # depends on the order: (v + 1e-16 v) - v is 0, (v - v) + 1e-16 v is not
    mat, _ = system
    coo = mat.tocoo()
    order = np.argsort(coo.row, kind="stable")
    data = coo.data[order]
    stored = np.stack([data, 1e-16 * data, -data], 1).ravel()
    thrice = scipy.sparse.csr_matrix(
        (stored, np.repeat(coo.col[order], 3), 3 * mat.indptr), shape=mat.shape
    )
    for case in (mat, thrice):
        blocks = _blocks(case)
        for (rows, cols), stack in zip(blocks, _gather(case, blocks), strict=True):
            want = _gather_per_group(case, rows, cols)
            assert stack.shape == want.shape and stack.dtype == want.dtype
            assert stack.tobytes() == want.tobytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rectangular_systems())
def test_gather_of_a_block_subset_matches_the_full_gather(system):
    # every other block of each group, so some groups keep none; the rows of the
    # dropped blocks are left out, and each kept block is summed as in the full gather
    mat, _ = system
    blocks = _blocks(mat)
    subset = [(rows[::2], cols[::2]) for rows, cols in blocks]
    full = list(_gather(mat, blocks))
    for stack, want in zip(_gather(mat, subset), full, strict=True):
        assert stack.shape == want[::2].shape and stack.dtype == want.dtype
        assert stack.tobytes() == want[::2].tobytes()
    assert [stack.shape[0] for stack in _gather(mat, [])] == []


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rectangular_systems_with_zero_rows())
def test_block_solve_matches_dense_lstsq(system):
    mat, rhs, zeroed = system
    dense = mat.toarray()
    # a tolerance no residual exceeds, so inconsistent systems are solved too
    with mock.patch.object(Tolerances, "solver", np.inf):
        x, x_zeroed = (_block_lstsq(mat, _blocks(mat), b, Tolerances(), "test system", 1) for b in (rhs, zeroed))
    ref = np.linalg.lstsq(dense, rhs, rcond=None)[0]
    assert np.linalg.norm(x - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-300)
    # zero rows can leave only blocks below the cut touched, where the exact solution
    # is 0 and the dense solve returns its rounding, eps |A^+| |b| at most: the
    # zeroed system is held to 1e-10 relative to |A^+| |b| as well as to |ref|
    ref_zeroed, _, _, sv = np.linalg.lstsq(dense, zeroed, rcond=None)
    kept = sv[sv > max(dense.shape) * np.finfo(float).eps * np.max(sv, initial=0.0)]
    scale = np.linalg.norm(zeroed) / np.min(kept, initial=np.inf)
    assert np.linalg.norm(x_zeroed - ref_zeroed) <= 1e-10 * max(np.linalg.norm(ref_zeroed), scale, 1e-300)
    assert_block_lstsq_matches_reference(mat, rhs, x)
    assert_block_lstsq_matches_reference(mat, zeroed, x_zeroed)


def test_block_solve_takes_the_exact_cut_between_the_bounds():
    """The cut of the solved blocks comes from the largest singular value of every
    block.  An untouched block of norm 1e3 sets it; the touched block has singular
    values 1 and 1e-13, and 1e-13 lies above the cut that the touched block alone
    would give and below the whole matrix's, so it must be dropped as lstsq drops
    it, which needs the untouched block decomposed."""
    rng = np.random.default_rng(3)
    rotate = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    small = rotate @ np.diag([1.0, 1e-13]) @ rotate.conj().T
    mat = scipy.sparse.block_diag([1e3 * np.eye(2), small], format="csr")
    scale = 4 * np.finfo(float).eps
    assert scale * 1.0 < 1e-13 < scale * 1e3
    rhs = np.zeros((4, 1), dtype=complex)
    rhs[2:, 0] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    # the component along the dropped direction stays in the residual
    with mock.patch.object(Tolerances, "solver", np.inf):
        x = _block_lstsq(mat, _blocks(mat), rhs, Tolerances(), "test system", 1)
    ref = np.linalg.lstsq(mat.toarray(), rhs, rcond=None)[0]
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert_block_lstsq_matches_reference(mat, rhs, x)


def test_block_solve_counts_a_nan_as_nonzero():
    """A NaN in the right-hand side touches its block, which alone is decomposed;
    the NaN residual it leaves is a solver failure."""
    rng = np.random.default_rng(4)
    mat = _permuted([_random_block(rng, 2, 2, False), _random_block(rng, 3, 3, False)], rng)
    for rows, cols in _blocks(mat):
        rhs = np.zeros((mat.shape[0], 1), dtype=complex)
        rhs[rows[0, 0], 0] = np.nan
        with mock.patch.object(adiabatic_ss, "_svds", wraps=adiabatic_ss._svds) as spy:
            with pytest.raises(SolverFailure, match="stalled at residual nan") as err:
                _block_lstsq(mat, _blocks(mat), rhs, Tolerances(), "test system", 1)
        assert np.isnan(err.value.residual)
        ((_, solved), _), = spy.call_args_list
        assert [(r.tolist(), c.tolist()) for r, c in solved] == [(rows[:1].tolist(), cols[:1].tolist())]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rectangular_systems())
def test_solve_columns_raises_on_inconsistent_rhs(system):
    mat, rhs = system
    dense = mat.toarray()
    ref = np.linalg.lstsq(dense, rhs, rcond=None)[0]
    res = np.linalg.norm(rhs - dense @ ref, axis=0)
    inconsistent = np.any(res > Tolerances.solver * (1.0 + np.linalg.norm(rhs, axis=0)))
    # an order-1 correction system whose matrix is ``mat``, whose unknown has
    # mat.shape[1] rows, and whose order-1 coefficient of d_delta on the lead is
    # the lead itself, with no d*_delta rows: the right-hand side is -lead
    def coefficient(conn, K, degree, w, up, box):
        return None, w[0] if up else w[0][:0]

    with mock.patch.multiple(
        adiabatic_ss,
        _boxes=lambda conn, order: [None] * (order + 1),
        _layout=lambda conn, degree, box: types.SimpleNamespace(dim=mat.shape[1]),
        _coefficient=coefficient,
        _correction_system=lambda conn, degree, order: (mat, _blocks(mat)),
    ):
        if inconsistent:
            with pytest.raises(SolverFailure):
                _solve_columns(None, 0, -rhs, 1, Tolerances())
        else:
            (w,) = _solve_columns(None, 0, -rhs, 1, Tolerances())
            assert np.linalg.norm(w - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-300)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(hermitian_matrices())
def test_block_eigvalsh_matches_dense(herm):
    # with the diagonal in the pattern every block is square, with the same
    # rows as columns
    blocks = _blocks(abs(herm) + scipy.sparse.identity(herm.shape[0]))
    assert all(np.array_equal(rows, cols) for rows, cols in blocks)
    evals = np.sort(
        np.concatenate([np.linalg.eigvalsh(stack).ravel() for stack in _gather(herm, blocks)])
    )
    ref = scipy.linalg.eigvalsh(herm.toarray())
    assert np.max(np.abs(evals - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- the packaged fixtures at the benchmark boxes --------------------------------


@pytest.mark.parametrize(
    "name, degrees, bands",
    [
        ("t4_su2_flat", range(4), (1, 1, 0, 0)),
        ("t3_su2_pages", range(4), (6, 1, 0)),
        ("t4_su2_cs3", [3], (1, 1, 1, 0)),
    ],
)
def test_near_zero_count_matches_dense_eigvalsh(name, degrees, bands):
    # the dense spectrum of the reference polynomial sum_r delta^r M_r, which
    # equals A(delta)^H A(delta)
    conn = load_scenario(packaged_scenario_path(name)).connection
    for p in degrees:
        count, top = near_zero_count(conn, p, 0.5, bands, 1e-8)
        _, m_r = reference_galerkin_polynomial(conn, p, bands)
        mat = sum(0.5**r * m for r, m in enumerate(m_r)).toarray()
        a = sum(0.5**s * m for s, m in enumerate(galerkin_polynomial(conn, p, bands)[1]))
        scale = max(np.linalg.norm(mat, 1), 1e-300)
        assert np.max(np.abs((a.conj().T @ a).toarray() - mat)) <= 1e-13 * scale
        ref = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        ref_top = float(np.max(np.abs(ref)))
        assert top == pytest.approx(ref_top, rel=1e-12)
        assert count == int(np.sum(ref <= 1e-8 * ref_top))


def test_blocks_reject_a_block_above_the_dense_limit():
    blocks = [np.ones((3, 3)), np.ones((2, 4))]
    mat = _permuted(blocks, np.random.default_rng(0))
    with mock.patch.object(adiabatic_ss, "_MAX_BLOCK_ENTRIES", 8):
        with pytest.raises(ConfigError, match="3 rows and 3 columns"):
            _blocks(mat)
    with mock.patch.object(adiabatic_ss, "_MAX_BLOCK_ENTRIES", 9):
        assert len(_blocks(mat)) == 2


def test_multi_axis_connection_couples_the_box_into_one_rejected_block():
    # modes along every axis join the whole Galerkin box into one component of
    # the pattern |A|^T |A| + I, |A| = sum_a |A_a|: at box (2, 2, 1, 1) in
    # degree 3 that is a 7875 x 7875 block, which the limit rejects before any
    # dense matrix is formed
    with open(packaged_scenario_path("t4_su2_cs3")) as fh:
        config = json.load(fh)
    entries = []
    for axis in range(4):
        key = [0, 0, 0, 0]
        key[axis] = 1
        entries.append([key, [axis], "0", "-0.4"])
        entries.append([[-k for k in key], [axis], "0", "0.4"])
    config["connection"]["components"][0][1]["entries"] = entries
    conn = Scenario(config).connection
    pattern = sum(abs(m) for m in galerkin_polynomial(conn, 3, (1, 1, 1, 1))[1])
    blocks = _blocks(pattern.T @ pattern + scipy.sparse.identity(pattern.shape[1]))
    assert [(r.shape, c.shape) for r, c in blocks] == [((1, 2835), (1, 2835))]
    with pytest.raises(ConfigError, match="7875 rows and 7875 columns"):
        near_zero_count(conn, 3, 0.5, (2, 2, 1, 1), 1e-8)


# -- correction systems at frequency zero ------------------------------------------


def test_correction_systems_match_bmat_stacking():
    """Orders 1-3 of every degree a t4_su2_cs3 recursion requests, of degree 0 (no
    d* rows) and of the top degree (no d rows), all at the zero box: the matrix
    on w_1 .. w_order bit for bit the stacking from scratch, cached with its
    blocks from _blocks, and no decomposition."""
    conn = load_scenario(packaged_scenario_path("t4_su2_cs3")).connection
    PageRecursion(conn, (1, 1, 1, 0)).run(3)
    requested = sorted({key[1] for key in conn._cache if key[0] == "corrections"})
    assert len(requested) >= 2
    top = conn.geometry.n + conn.alg.dim
    for degree in requested + [0, top]:
        for order in (1, 2, 3):
            want_unknowns, want_mat, _ = reference_correction_system(conn, degree, order)
            mat, blocks = _correction_system(conn, degree, order)
            assert mat.shape[1] == sum(u.dim for u in want_unknowns[1:])
            assert csr_bytes(mat) == csr_bytes(want_mat)
            cached = conn._cache[("corrections", degree, order)]
            assert len(cached) == 2 and cached[0] is mat and cached[1] is blocks
            want_blocks = _blocks(want_mat)
            assert len(blocks) == len(want_blocks)
            for (rows, cols), (want_rows, want_cols) in zip(blocks, want_blocks):
                assert rows.dtype.kind == cols.dtype.kind == "i"
                assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


def test_next_order_requests_only_its_own_block_rows():
    """Order 3 after order 2 builds the six component matrices of equation 3 and
    no other: the blocks of equations t <= 2 come from the cache."""
    conn = load_scenario(packaged_scenario_path("t4_su2_cs3")).connection
    degree = 3
    _correction_system(conn, degree, 2)
    boxes = _boxes(conn, 3)
    before = {key for key in conn._cache if key[0] == "component"}
    build = adiabatic_ss.d_component_matrix
    with mock.patch.object(adiabatic_ss, "d_component_matrix", wraps=build) as spy:
        _correction_system(conn, degree, 3)
    want = {("component", 3 - s, (degree, boxes[s]), (degree + 1, boxes[3])) for s in (1, 2, 3)}
    want |= {("component", 3 - s, (degree - 1, boxes[3]), (degree, boxes[s])) for s in (1, 2, 3)}
    assert spy.call_count == 6
    assert {key for key in conn._cache if key[0] == "component"} - before == want


# -- the solves of the recursions and recoveries against the every-block oracle ------


def recording_lstsq(calls):
    """Patch _block_lstsq to append (matrix, right-hand sides, solution) of every
    call to ``calls``."""
    solve = adiabatic_ss._block_lstsq

    def recording(mat, blocks, rhs, tolerances, what, order):
        x = solve(mat, blocks, rhs, tolerances, what, order)
        calls.append((mat, rhs, x))
        return x

    return mock.patch.object(adiabatic_ss, "_block_lstsq", recording)


@pytest.mark.parametrize("name", ["t4_su2_cs3", "t3_su2_pages"])
def test_recursion_solves_match_the_every_block_oracle(name):
    """Every system a recursion poses, its stable page lifted in every degree:
    the solution bit for bit that of every block's pseudoinverse."""
    scenario = load_scenario(packaged_scenario_path(name))
    calls = []
    with recording_lstsq(calls):
        rec = scenario.page_recursion(scenario.degree)
        for p in range(scenario.geometry.n + scenario.algebra.dim + 1):
            rec._lifts(rec.k_stop, p)
    assert calls
    for mat, rhs, x in calls:
        assert_block_lstsq_matches_reference(mat, rhs, x)


def _generated_scenario(tmp_path):
    """Connection 0 of seed 1 from the benchmark's scenario generator."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "generator.py"
    spec = importlib.util.spec_from_file_location("generator", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    scenario = tmp_path / "generated.json"
    scenario.write_text(generator.scenario_text(generator.connection_config(1, 0, 5)))
    return str(scenario)


@pytest.mark.parametrize("scenario", ["t4_su2_cs3", _generated_scenario], ids=["t4_su2_cs3", "generated"])
def test_recovery_solve_matches_the_every_block_oracle(tmp_path, scenario):
    """The order-4 recovery of verify-cs3, on a fixture and on a generated
    many-mode connection: bit for bit the every-block oracle."""
    if callable(scenario):
        scenario = scenario(tmp_path)
    calls = []
    with recording_lstsq(calls):
        argv = ["verify-cs3", "--scenario", scenario, "--out", str(tmp_path / "out"), "--quiet"]
        assert cli_main(argv) == 0
    assert len(calls) == 1
    mat, rhs, x = calls[0]
    assert_block_lstsq_matches_reference(mat, rhs, x)
