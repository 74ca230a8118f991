"""SNAP701: a class hand-writing its own capture/restore pair bypasses
the SNAPSHOT_FIELDS declaration the rule checks."""


class BudgetMeter:  # expect: SNAP701
    """state()/restore() spelling qualifies a class too."""

    def __init__(self):
        self.spent = 0.0

    def charge(self, amount):
        self.spent += amount

    def state(self):
        return {"spent": self.spent}

    def restore(self, state):
        self.spent = state["spent"]


class Ledger:  # expect: SNAP701
    def __init__(self):
        self.entries = []

    def snapshot(self):
        return {"entries": list(self.entries)}

    def restore(self, state):
        self.entries = list(state["entries"])


class LiveView:
    """A read-only snapshot() without a restore is a view, not a pair."""

    def __init__(self):
        self.seen = 0

    def observe(self):
        self.seen += 1

    def snapshot(self):
        return {"seen": self.seen}
