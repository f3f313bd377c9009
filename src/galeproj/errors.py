"""Exception types, and the base of the immutable records, shared across
the package."""


class Record:
    """Base of the records that validate their fields or cache values.

    A subclass names its fields in `_fields`, and its `__init__` stores
    them in the instance dict.  `==`, `hash` and `repr` read those fields
    in order; assigning or deleting an attribute raises AttributeError.
    A `cached_property` value also lives in the instance dict, out of `==`
    and `hash`.
    """

    _fields = ()

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class GaleprojError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GaleprojError, ValueError):
    """Vectors or constraints with inconsistent ambient dimensions."""


class RankDeficient(GaleprojError, ValueError):
    """A matrix required to have full row rank does not."""


class EmptyPolytope(GaleprojError, ValueError):
    """The inequality system has no solution."""


class UnboundedPolytope(GaleprojError, ValueError):
    """The inequality system has an unbounded solution set."""


class NotFullDimensional(GaleprojError, ValueError):
    """The polytope has empty interior in its ambient space."""


class RedundantRow(GaleprojError, ValueError):
    """An inequality row does not define a facet."""


class DuplicateLabels(GaleprojError, ValueError):
    """Facet or vertex labels are not pairwise distinct."""


class OriginNotInterior(GaleprojError, ValueError):
    """An operation requiring 0 in the interior was applied elsewhere."""


class IndexOutOfRange(GaleprojError, IndexError):
    """A vertex index does not address a point of the polytope."""


class UnknownLabel(GaleprojError, KeyError):
    """A label does not occur in the configuration or complex."""


class LabelOutsideVertexSet(GaleprojError, ValueError):
    """A facet mentions a vertex label the complex does not declare."""


class NotGale(GaleprojError, ValueError):
    """The vector configuration is not a Gale transform."""


class TooLargeForExact(GaleprojError, ValueError):
    """Input exceeds the size cap of an exact layer (coloring, experiment,
    Gale face enumeration)."""


class OutOfTheoremRange(GaleprojError, ValueError):
    """Parameters outside the stated range of a closed-form result."""


class HypothesisViolated(GaleprojError, ValueError):
    """Inputs violate the hypotheses of a bound or construction (r < d, too
    few vertices, a polytope that is not simple)."""


class EpsilonOutOfRange(GaleprojError, ValueError):
    """The deformation parameter must satisfy 0 < eps <= 1."""

