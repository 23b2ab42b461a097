"""Liftable mapping class groups of cyclic branched covers of the sphere.

The pipeline, bottom to top:

* arith_perm — residues, permutations, Smith normal form;
* datasets — cyclic data sets: validation, equivalence, canonical forms,
  enumeration, named families, the text grammar;
* genvec — generating vectors, the (unit, permutation) action, stabilizers,
  the liftable/centralizer images as stabilizers of the vector, the
  3-branch-point classification;
* fpgroups — words and presentations, sphere mapping-class presentations,
  Reidemeister-Schreier with its own coset enumeration, Tietze
  simplification, abelianization, extensions;
* analysis — end-to-end analysis, normalizer/centralizer presentations,
  homology matrix verification, the genus-3 table;
* cli — the ``liftmcg`` command.
"""

from .analysis import (
    AnalysisReport,
    NormalizerSpec,
    analyze,
    normalizer_centralizer,
    table_genus3,
    verify_doubled_matrices,
)
from .arith_perm import (
    CapacityError,
    InternalInvariantError,
    OutOfScopeError,
    smith_normal_form,
    units_mod,
)
from .datasets import (
    DataSet,
    DataSetParseError,
    ValidationReport,
    are_equivalent,
    canonical_form,
    dataset,
    enumerate_spherical,
    equivalence_witness,
    parse_dataset,
    render_dataset,
    validate,
)
from .fpgroups import (
    LiftData,
    Presentation,
    Word,
    abelianization,
    extension_presentation,
    mod_sphere_presentation,
    pmod_sphere_presentation,
    reidemeister_schreier_full,
    tietze_simplify,
)
from .genvec import (
    GeneratingVector,
    GroupDescriptor,
    StabilizerReport,
    VectorStabilizer,
    act,
    classify_irreducible,
    generating_vector,
    liftable_images,
    mod_equals_lmod,
    stabilizer_bruteforce,
)

__version__ = "0.1.0"
