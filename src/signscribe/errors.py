"""Exception types shared across the package."""


class SignscribeError(Exception):
    """Base class for all package errors."""


class DimensionError(SignscribeError):
    """Tensor shapes do not satisfy an operation's contract."""


class ContractError(SignscribeError):
    """An operation precondition was violated."""


class VocabularyError(SignscribeError):
    """Token index or token string outside the vocabulary."""


class ConfigError(SignscribeError):
    """Invalid run configuration."""


class CorpusError(SignscribeError):
    """Corpus file missing, malformed, or containing an invalid sample."""


class CheckpointError(SignscribeError):
    """Checkpoint file missing, truncated, or of the wrong format."""


class CompatibilityError(SignscribeError):
    """Artifacts that must agree (checkpoints, corpora) do not."""


class NonFiniteLossError(SignscribeError):
    """Training met a non-finite loss or gradient on too many consecutive steps."""
