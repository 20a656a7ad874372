"""Exception types shared across the library."""


class LiftReachError(Exception):
    """Base class for all library errors."""


class OutOfAtlas(LiftReachError):
    """A raw coordinate tuple has no canonical representative in any chart."""


class DimensionMismatch(LiftReachError):
    pass


class Escape(LiftReachError):
    """A flow left the atlas; carries the escape time and the partial trajectory."""

    def __init__(self, time, trajectory=None):
        super().__init__(f"trajectory escaped the atlas at t={time}")
        self.time = time
        self.trajectory = trajectory


class UnresolvedSelector(LiftReachError):
    pass


class ControlOutOfSet(LiftReachError):
    pass


class NotSubmersion(LiftReachError):
    def __init__(self, point, rank, expected):
        super().__init__(f"differential rank {rank} < {expected} at {point}")
        self.point = point


class SingularGram(LiftReachError):
    pass


class NotAdapted(LiftReachError):
    pass


class NotInKernel(LiftReachError):
    def __init__(self, index, point, residual):
        super().__init__(
            f"generator {index} leaves ker(dPhi) at {point} (|dPhi.X| = {residual:.3e})"
        )
        self.index = index
        self.point = point


class RankDeficient(LiftReachError):
    def __init__(self, point, message="kernel generators do not span ker(dPhi)"):
        super().__init__(f"{message} at {point}")
        self.point = point


class IndependenceViolated(LiftReachError):
    pass


class UnmappedControl(LiftReachError):
    pass


class FrameNotKernel(LiftReachError):
    pass


class ParseError(LiftReachError):
    def __init__(self, message, where=None):
        super().__init__(message if where is None else f"{where}: {message}")
        self.where = where


class UnresolvedReference(LiftReachError):
    def __init__(self, name):
        super().__init__(f"unresolved reference: {name!r}")
        self.name = name
