"""Adiabatic Hodge theory for invariant forms on principal bundles over flat tori."""

from .errors import (
    BundleHodgeError,
    ConfigError,
    DegreeError,
    DegreeOverflow,
    NotExact,
    NotSemisimple,
    SolverFailure,
)
from .lie_algebra import (
    LieAlgebraData,
    LieCochain,
    ce_adjoint,
    ce_differential,
    cs3_fiber_term,
    direct_sum,
    green_inverse,
    harmonic_subspace,
    make_su2,
    make_su3,
    make_u1,
)
from .base_forms import (
    FourierForm,
    TorusGeometry,
    codifferential,
    coexact_primitive,
    d,
    hodge_decompose,
    hodge_star,
    inner_product,
    wedge,
)
from .bigraded import (
    BigradedForm,
    Connection,
    DeltaPolynomial,
    apply_d_component,
    apply_dstar_component,
    bigraded_inner_product,
    d_delta,
    dstar_delta,
)
from .chern_weil import (
    InvariantPolynomial,
    abelian_scenario,
    beta_correction,
    cs1,
    cs3,
    curvature,
    cw2,
    cw4,
    primitive_h,
)
from .adiabatic_ss import (
    PageRecursion,
    harmonic_limit,
    recover_omega3,
    residual_orders,
    spectrum_sweep,
    verify_formal_harmonic,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
