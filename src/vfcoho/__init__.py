"""Exact verification of Lie-algebra cohomology identities for vector
fields on parallelizable frames.

Two coefficient models share one interface: Laurent polynomials over the
torus frame and ordinary polynomials over the affine frame.  All scalars
are ints or Fractions; nothing here ever touches a float.  The public
surface is the ring/form/field types, the cocycle constructors, the
checking engine, and the named suites driven by the `vfcoho` CLI.
"""

__version__ = "0.1.0"

from .cocycles import (contraction_cocycle, divergence_cochain,
                       form_trace_cocycle, gauge_form_trace, gauge_odd_trace,
                       gauge_reduced_trace, odd_trace_cocycle,
                       reduced_trace_cocycle, scalar_trace_cocycle,
                       wedge_pair_cocycle)
from .cohomology import (Cochain, FiniteLieAlgebra, GaugeContext,
                         GaugeElement, betti_numbers, cochain_wedge,
                         is_cocycle, is_equivariant, pullback_by_crossed_hom)
from .extensions import (ExtensionElement, ExtensionSetup, InvariantForm,
                         extension_bracket, jacobi_check, killing_form,
                         virasoro_twist)
from .fields import (MatrixFunction, VectorField, divergence, neg_jacobian)
from .forms import (FormClass, PForm, ext_d, lie_derive, reduce_mod_exact)
from .reports import CheckReport, RunConfig
from .rings import AFFINE, TORUS, MismatchError, RingElement
from .suites import SUITE_NAMES, run_suites
from .weil import (haefliger_dims, partition, vey_basis, weil_betti)

__all__ = [
    "AFFINE",
    "CheckReport",
    "Cochain",
    "ExtensionElement",
    "ExtensionSetup",
    "FiniteLieAlgebra",
    "FormClass",
    "GaugeContext",
    "GaugeElement",
    "InvariantForm",
    "MatrixFunction",
    "MismatchError",
    "PForm",
    "RingElement",
    "RunConfig",
    "SUITE_NAMES",
    "TORUS",
    "VectorField",
    "betti_numbers",
    "cochain_wedge",
    "contraction_cocycle",
    "divergence",
    "divergence_cochain",
    "ext_d",
    "extension_bracket",
    "form_trace_cocycle",
    "gauge_form_trace",
    "gauge_odd_trace",
    "gauge_reduced_trace",
    "haefliger_dims",
    "is_cocycle",
    "is_equivariant",
    "jacobi_check",
    "killing_form",
    "lie_derive",
    "neg_jacobian",
    "odd_trace_cocycle",
    "partition",
    "pullback_by_crossed_hom",
    "reduce_mod_exact",
    "reduced_trace_cocycle",
    "run_suites",
    "scalar_trace_cocycle",
    "vey_basis",
    "virasoro_twist",
    "wedge_pair_cocycle",
    "weil_betti",
    "__version__",
]
