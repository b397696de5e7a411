"""Defining systems, their bound quiver algebras, and the exact verification
of the string/band classification of their modules."""

__version__ = "0.1.0"

from .defining_system import (AdmissibleVertex, DefiningSystem, validate,
                              from_json, admissible_vertices, extend,
                              reduce_to_fundamental)
from .field import PrimeField
from .quiver import Quiver, Relation, build_quiver, build_relations
from .strings import EMPTY, StringWord, WordCalculus
from .string_modules import (Representation, StringModules, check_relations,
                             zero_representation)
from .algebra import AlgebraBasis
from .homlab import (ArVerifier, IndecVerdict, ar_translate, hom_basis,
                     is_indecomposable, is_isomorphic, is_split, realize_ses)
from .vsc import (AdmissiblePoset, VscModel, hom_pattern_of_functor,
                  match_model)

__all__ = [
    "AdmissibleVertex", "DefiningSystem", "validate", "from_json",
    "admissible_vertices", "extend", "reduce_to_fundamental",
    "PrimeField",
    "Quiver", "Relation", "build_quiver", "build_relations",
    "EMPTY", "StringWord", "WordCalculus",
    "Representation", "StringModules", "check_relations",
    "zero_representation",
    "AlgebraBasis",
    "ArVerifier", "IndecVerdict", "ar_translate", "hom_basis",
    "is_indecomposable", "is_isomorphic", "is_split", "realize_ses",
    "AdmissiblePoset", "VscModel", "hom_pattern_of_functor", "match_model",
]
