"""SNAP701: every attribute mutated mid-run must be declared in the
class's SNAPSHOT_FIELDS (transient state included)."""

from repro.snapshot import INT, Seq, Snapshottable, Transient


class CoveredController(Snapshottable):
    """Every mutated field is declared — clean."""

    SNAPSHOT_FIELDS = {
        "counter": INT,
        "history": Seq(INT),
        # A declared reset still counts as coverage: restore accounts
        # for the field.
        "scratch": Transient(),
    }

    def __init__(self):
        self.counter = 0
        self.scratch = None
        self.history = []

    def step(self, value):
        self.counter += 1
        self.scratch = value
        self.history.append(value)


class LeakyController(Snapshottable):
    """Fields mutated in step() that the declaration omits."""

    SNAPSHOT_FIELDS = {"counter": INT}

    def __init__(self):
        self.counter = 0
        self.missing = 0
        self.log = []

    def step(self, value):
        self.counter += 1
        self.missing += 1  # expect: SNAP701
        self.log.append(value)  # expect: SNAP701


class PlainAccumulator:
    """No declaration and no capture/restore pair: out of scope."""

    def __init__(self):
        self.total = 0

    def add(self, value):
        self.total += value
