"""Exception hierarchy shared by every icuseq module."""


class IcuseqError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidRegistry(IcuseqError):
    pass


class ParseError(IcuseqError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class InvalidRatios(IcuseqError):
    pass


class EmptyTrainSplit(IcuseqError):
    pass


class EmptyStay(IcuseqError):
    pass


class StaticsOverflow(IcuseqError):
    pass


class CacheMiss(IcuseqError):
    def __init__(self, text: str):
        super().__init__(f"no cached embedding for {text!r}")
        self.text = text


class NonFiniteValue(IcuseqError):
    pass


class IndexOutOfRange(IcuseqError):
    pass


class ShapeMismatch(IcuseqError):
    pass


class ModeMismatch(IcuseqError):
    pass


class NoEligibleTokens(IcuseqError):
    pass


class NoMaskedSlots(IcuseqError):
    pass


class GradMismatch(IcuseqError):
    def __init__(self, param: str, rel_err: float):
        super().__init__(f"gradient mismatch in {param!r}: rel err {rel_err:.3e}")
        self.param = param
        self.rel_err = rel_err


class GraphReleased(IcuseqError):
    pass


class FormatError(IcuseqError):
    pass


class ConfigMismatch(IcuseqError):
    pass


class DegenerateLabels(IcuseqError):
    pass


class UnknownTask(IcuseqError):
    pass


class MissingLabels(IcuseqError):
    pass


class DivergedLoss(IcuseqError):
    pass


class InvalidSpec(IcuseqError):
    pass
