"""Exception types shared across the package."""


class FuzztermError(Exception):
    """Base class for all package-specific errors."""


class ParseError(FuzztermError):
    """A text artifact (rule-base file, manifest) failed to parse.

    Carries the source path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(f"{where}{message}")


class InvalidRuleBase(FuzztermError):
    """A rule references unknown variables or set labels, or is empty, or
    an output set has zero area.

    `rule` is the index of the offending rule, or None when no one rule is
    at fault; `output_set` is the label of the output set at fault, or None.
    """

    def __init__(self, message, rule=None, output_set=None):
        self.rule = rule
        self.output_set = output_set
        super().__init__(message)


class CompletenessError(FuzztermError):
    """Some point of the input grid fires no rule."""


class NoRuleFired(FuzztermError):
    """An input vector produced zero aggregate mass, so no centroid exists."""


class EmptyDocument(FuzztermError):
    """A document yielded no tokens after filtering."""


class EmptyPositions(FuzztermError):
    """A term carries no occurrence positions."""


class EmptyProfile(FuzztermError):
    """No positive criterion values were available to profile."""


class UnknownTerm(FuzztermError):
    """A term is missing from the corpus document-frequency table."""


class InsufficientDocs(FuzztermError):
    """Fewer usable documents than requested clusters."""


class CategoryTooSmall(FuzztermError):
    """A category has too few documents to subsample."""


class LengthMismatch(FuzztermError):
    """Paired score lists differ in length."""


class StageError(FuzztermError):
    """A pipeline stage failed; wraps the original error with a stage tag
    and, when one input is to blame, `where` names it."""

    def __init__(self, stage, original, where=None):
        self.stage = stage
        self.original = original
        self.detail = f"{where}: {original}" if where else str(original)
        super().__init__(f"[{stage}] {self.detail}")
