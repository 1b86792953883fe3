"""Exceptions raised by the lattice / representation machinery."""


class SerrelabError(Exception):
    """Base class for all package errors."""


class InputError(SerrelabError, ValueError):
    """Malformed or oversized input (the CLI exits 1, not 2)."""


class CycleDetected(InputError):
    """The cover relation contains a directed cycle."""


class RedundantCover(InputError):
    """A cover pair is listed twice or implied by a longer path.

    Carries the offending (lo, hi) pair.
    """

    def __init__(self, lo, hi, why="is implied by a longer path"):
        super().__init__(f"cover ({lo!r}, {hi!r}) {why}")
        self.pair = (lo, hi)


class NotALattice(InputError):
    """Some pair has no unique meet or join; names the first offending pair."""

    def __init__(self, a, b, kind):
        super().__init__(f"no unique {kind} for pair ({a!r}, {b!r})")
        self.pair = (a, b)
        self.kind = kind


class GuardrailExceeded(InputError):
    """Input is larger than the configured desk-scale guardrail."""


class LatticeMismatch(SerrelabError):
    """Two representations do not live over the same lattice."""


class NotAComplex(SerrelabError):
    """Differentials do not compose to zero."""


class MaxStepsExceeded(SerrelabError):
    """An orbit or trajectory did not close within the step budget."""

    def __init__(self, where, steps):
        super().__init__(f"no period found for {where!r} within {steps} steps")
        self.where = where
        self.steps = steps


class Disagreement(SerrelabError):
    """Coxeter-level and derived-level data disagree at some step."""

    def __init__(self, element, step, combinatorial, derived):
        super().__init__(
            f"disagreement at element {element!r}, step {step}: "
            f"combinatorial {combinatorial} vs derived {derived}"
        )
        self.element = element
        self.step = step
        self.combinatorial = combinatorial
        self.derived = derived


class PeriodViolation(SerrelabError):
    """A permutation orbit failed its predicted period or rank sum."""


class RotationViolation(SerrelabError):
    """An interval mutation failed the rotation case dichotomy."""
