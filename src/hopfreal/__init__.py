"""Bialgebras of right-invariant operators on truncated tensor algebras.

Exact-rational machinery for realizing operator bialgebras from coalgebra
data, computing their ideals of relations degree by degree, constructing
antipodes (triangular back-substitution or a general bounded solver), and
verifying the associated Hopf quotient.
"""

from .coalgebra import (
    AlgebraPresentation,
    BasisId,
    Coalgebra,
    direct_sum,
    dual_coalgebra,
    dual_numbers,
    diagonal_algebra,
    ground_field,
    grouplikes,
    is_cotriangular,
    triangular_coalgebra,
    upper_triangular_algebra,
    verify_coalgebra,
)
from .exactlin import Matrix, Scalar, SpanBasis, kernel_basis, rref
from .free_tensor import (
    TensorContext,
    context_from_algebra,
    coproduct,
    counit,
    verify_free_bialgebra,
)
from .hopf import (
    AntipodeTable,
    ClosureResult,
    antipode_general,
    antipode_triangular,
    closure_iterate,
    extend_antihom,
    verify_hopf_quotient,
    verify_Y_coproduct,
)
from .invariant import RIOp, op_from_form, verify_right_invariance
from .lifting import (
    RealizationSpec,
    make_spec,
    verify_lift,
)
from .inputdoc import InputDocument, build_spec, parse_input
from .pipeline import run_pipeline
from .realization import relation_kernel, relation_kernel_upto, verify_coideal

__version__ = "0.1.0"
