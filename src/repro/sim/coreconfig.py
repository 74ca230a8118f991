"""Configuration space of a reconfigurable core (paper §III, §VII).

A core is split into three independently reconfigurable sections, each of
which can be six-, four-, or two-wide:

* **FE** (front-end): fetch, decode, rename, dispatch, ROB.
* **BE** (back-end): issue queues, register files, functional units.
* **LS** (load/store): load queue, store queue.

That yields ``3**3 == 27`` core configurations.  Each application is
additionally assigned one of four LLC way allocations (1/2, 1, 2, or 4
ways; paper §VIII-A2), for ``27 * 4 == 108`` joint configurations — the
columns of the reconstruction matrices and the per-dimension alphabet of
the DDS search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

#: Widths a core section can be configured to, narrowest first.
SECTION_WIDTHS: Tuple[int, ...] = (2, 4, 6)

#: LLC way allocations available to a single application (paper limits the
#: per-job choices to 1/2, 1, 2 and 4 ways to keep reconstruction tractable).
CACHE_ALLOCS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)

N_CORE_CONFIGS = len(SECTION_WIDTHS) ** 3
N_CACHE_ALLOCS = len(CACHE_ALLOCS)
N_JOINT_CONFIGS = N_CORE_CONFIGS * N_CACHE_ALLOCS

_WIDTH_INDEX = {width: i for i, width in enumerate(SECTION_WIDTHS)}


@dataclass(frozen=True, order=True)
class CoreConfig:
    """One {FE, BE, LS} setting of a reconfigurable core.

    Instances are value objects: hashable, ordered by (fe, be, ls), and
    convertible to/from a dense index in ``[0, 27)`` where index 0 is the
    narrowest-issue {2,2,2} and index 26 the widest-issue {6,6,6}.
    """

    fe: int
    be: int
    ls: int
    #: Dense index in ``[0, N_CORE_CONFIGS)``, computed at construction.
    index: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        for name, width in (("fe", self.fe), ("be", self.be), ("ls", self.ls)):
            if width not in _WIDTH_INDEX:
                raise ValueError(
                    f"{name} width must be one of {SECTION_WIDTHS}, got {width}"
                )
        object.__setattr__(self, "index", (
            _WIDTH_INDEX[self.fe] * len(SECTION_WIDTHS) + _WIDTH_INDEX[self.be]
        ) * len(SECTION_WIDTHS) + _WIDTH_INDEX[self.ls])

    @classmethod
    def from_index(cls, index: int) -> "CoreConfig":
        """Inverse of :attr:`index`: the shared :data:`CORE_CONFIGS` entry."""
        if not 0 <= index < N_CORE_CONFIGS:
            raise ValueError(f"core config index out of range: {index}")
        return CORE_CONFIGS[index]

    @classmethod
    def widest(cls) -> "CoreConfig":
        """The {6,6,6} configuration used as the high profiling sample."""
        return cls(6, 6, 6)

    @classmethod
    def narrowest(cls) -> "CoreConfig":
        """The {2,2,2} configuration used as the low profiling sample."""
        return cls(2, 2, 2)

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``"{6,2,4}"``."""
        return f"{{{self.fe},{self.be},{self.ls}}}"

    def widths(self) -> Tuple[int, int, int]:
        """(fe, be, ls) widths as a tuple."""
        return (self.fe, self.be, self.ls)

    def __str__(self) -> str:
        return self.label


#: All 27 core configurations in dense-index order ({2,2,2} ... {6,6,6}).
#: ``CoreConfig.from_index`` returns these instances, so the value
#: objects a controller keeps per quantum are shared, not rebuilt.
CORE_CONFIGS: Tuple[CoreConfig, ...] = tuple(
    CoreConfig(fe, be, ls)
    for fe in SECTION_WIDTHS
    for be in SECTION_WIDTHS
    for ls in SECTION_WIDTHS
)


@dataclass(frozen=True, order=True)
class JointConfig:
    """A (core configuration, LLC way allocation) pair.

    This is the unit the scheduler reasons about: one column of the SGD
    reconstruction matrices, and one symbol of the DDS decision vector.
    The dense index interleaves cache allocations fastest::

        index = core.index * N_CACHE_ALLOCS + cache_index
    """

    core: CoreConfig
    cache_ways: float
    #: Dense index in ``[0, N_JOINT_CONFIGS)``, computed at construction.
    index: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.cache_ways not in CACHE_ALLOCS:
            raise ValueError(
                f"cache allocation must be one of {CACHE_ALLOCS}, "
                f"got {self.cache_ways}"
            )
        object.__setattr__(
            self, "index", self.core.index * N_CACHE_ALLOCS + self.cache_index
        )

    @property
    def cache_index(self) -> int:
        """Index of :attr:`cache_ways` within :data:`CACHE_ALLOCS`."""
        return CACHE_ALLOCS.index(self.cache_ways)

    @classmethod
    def from_index(cls, index: int) -> "JointConfig":
        """Inverse of :attr:`index`: the shared :data:`JOINT_CONFIGS` entry."""
        if not 0 <= index < N_JOINT_CONFIGS:
            raise ValueError(f"joint config index out of range: {index}")
        return JOINT_CONFIGS[index]

    @property
    def label(self) -> str:
        """Readable label, e.g. ``"{6,2,4}/2w"``."""
        ways = self.cache_ways
        ways_text = f"{ways:g}"
        return f"{self.core.label}/{ways_text}w"

    def __str__(self) -> str:
        return self.label


#: All 108 joint configurations in dense-index order, shared by
#: ``JointConfig.from_index`` like :data:`CORE_CONFIGS`.
JOINT_CONFIGS: Tuple[JointConfig, ...] = tuple(
    JointConfig(core, cache_ways)
    for core in CORE_CONFIGS
    for cache_ways in CACHE_ALLOCS
)


def iter_core_configs() -> Iterator[CoreConfig]:
    """Iterate the 27 core configurations in dense-index order."""
    return iter(CORE_CONFIGS)


def iter_joint_configs() -> Iterator[JointConfig]:
    """Iterate the 108 joint configurations in dense-index order."""
    return iter(JOINT_CONFIGS)
