"""Whole-program layer: symbol table, call graph, and program rules.

Covers the interprocedural machinery itself (module/class/function
resolution, call-edge tiers, reachability) plus the behaviours only a
cross-file pass can deliver: rng_for collisions spanning two modules
and the SNAP701 mutation test — delete a field from a fixture
controller's SNAPSHOT_FIELDS declaration and the rule must fire.
"""

from pathlib import Path

from repro.analysis import lint_paths, lint_source
from repro.analysis.engine import _parse_context
from repro.analysis.program import ProgramContext

FIXTURES = Path(__file__).parent / "fixtures"


def build(*sources, module_prefix="mod"):
    contexts = []
    for index, source in enumerate(sources):
        ctx, err = _parse_context(
            source, f"<{module_prefix}{index}>", f"{module_prefix}{index}"
        )
        assert err is None
        contexts.append(ctx)
    return ProgramContext.build(contexts)


# -- symbol table ------------------------------------------------------

def test_symbol_table_indexes_modules_classes_functions():
    program = build(
        "import numpy as np\n"
        "from repro.rng import rng_for\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "class Widget:\n"
        "    def method(self):\n"
        "        return helper()\n"
    )
    assert "mod0" in program.modules
    mod = program.modules["mod0"]
    assert mod.aliases["np"] == "numpy"
    assert mod.aliases["rng_for"] == "repro.rng.rng_for"
    assert mod.functions["helper"] == "mod0.helper"
    assert mod.classes["Widget"] == "mod0.Widget"
    assert "mod0.Widget.method" in program.functions
    assert program.functions["mod0.Widget.method"].cls == "mod0.Widget"


def test_call_graph_resolves_bare_and_self_calls():
    program = build(
        "def leaf():\n"
        "    return 0\n"
        "\n"
        "def trunk():\n"
        "    return leaf()\n"
        "\n"
        "class Node:\n"
        "    def outer(self):\n"
        "        return self.inner()\n"
        "    def inner(self):\n"
        "        return trunk()\n"
    )
    graph = program.call_graph
    assert "mod0.leaf" in graph["mod0.trunk"]
    assert "mod0.Node.inner" in graph["mod0.Node.outer"]
    assert "mod0.trunk" in graph["mod0.Node.inner"]


def test_call_graph_resolves_typed_locals_and_fields():
    program = build(
        "class Engine:\n"
        "    def start(self):\n"
        "        return 1\n"
        "\n"
        "class Car:\n"
        "    def __init__(self):\n"
        "        self.engine = Engine()\n"
        "    def drive(self):\n"
        "        return self.engine.start()\n"
        "\n"
        "def race(car: Car):\n"
        "    return car.drive()\n"
        "\n"
        "def build_and_go():\n"
        "    car = Car()\n"
        "    return car.drive()\n"
    )
    graph = program.call_graph
    assert "mod0.Engine.start" in graph["mod0.Car.drive"]
    assert "mod0.Car.drive" in graph["mod0.race"]
    assert "mod0.Car.drive" in graph["mod0.build_and_go"]
    # Constructor call also links to __init__.
    assert "mod0.Car.__init__" in graph["mod0.build_and_go"]


def test_call_graph_cha_fallback_links_by_method_name():
    program = build(
        "class Alpha:\n"
        "    def act(self):\n"
        "        return 1\n"
        "\n"
        "def dispatch(thing):\n"
        "    return thing.act()\n"
    )
    assert "mod0.Alpha.act" in program.call_graph["mod0.dispatch"]


def test_calls_into_modules_outside_the_program_have_no_fallback():
    program = build(
        "import os\n"
        "import os.path as osp\n"
        "from subprocess import Popen\n"
        "\n"
        "class Pool:\n"
        "    def close(self):\n"
        "        return 1\n"
        "    def exists(self):\n"
        "        return 2\n"
        "    def wait(self):\n"
        "        return 3\n"
        "\n"
        "def release(fd, path):\n"
        "    os.close(fd)\n"
        "    osp.exists(path)\n"
        "    Popen.wait(fd)\n"
        "\n"
        "def shut(pool):\n"
        "    return pool.close()\n",
        "import mod0\n"
        "\n"
        "def caller(x):\n"
        "    return mod0.Pool.close(x)\n",
    )
    assert program.call_graph.get("mod0.release", set()) == set()
    # Unknown receivers and program modules keep their edges.
    assert "mod0.Pool.close" in program.call_graph["mod0.shut"]
    assert "mod0.Pool.close" in program.call_graph["mod1.caller"]


def test_cross_module_calls_resolve_through_aliases():
    program = build(
        "def shared():\n"
        "    return 7\n",
        "from mod0 import shared\n"
        "\n"
        "def caller():\n"
        "    return shared()\n",
    )
    assert "mod0.shared" in program.call_graph["mod1.caller"]


# -- reachability ------------------------------------------------------

def test_reachable_walks_transitively_and_reports_chains():
    program = build(
        "def a():\n"
        "    return b()\n"
        "def b():\n"
        "    return c()\n"
        "def c():\n"
        "    return 0\n"
        "def island():\n"
        "    return 1\n"
    )
    parents = program.reachable(["mod0.a"])
    assert set(parents) == {"mod0.a", "mod0.b", "mod0.c"}
    assert program.chain(parents, "mod0.c") == [
        "mod0.a", "mod0.b", "mod0.c"
    ]


def test_decision_roots_and_fleet_entries_follow_conventions():
    program = build(
        "def run_policy(policy):\n"
        "    return policy\n"
        "\n"
        "class MyPolicy:\n"
        "    def decide(self):\n"
        "        return 1\n"
        "\n"
        "class DDSSearch:\n"
        "    def search(self):\n"
        "        return 2\n"
        "\n"
        "def _cell(uid):\n"
        "    return uid\n"
        "\n"
        "def build():\n"
        "    return WorkUnit(unit_id='u', fn=_cell)\n"
    )
    assert program.decision_roots() == [
        "mod0.DDSSearch.search",
        "mod0.MyPolicy.decide",
        "mod0.run_policy",
    ]
    assert program.fleet_entry_points() == ["mod0._cell"]


# -- rng_for summaries -------------------------------------------------

def test_rng_for_calls_record_static_keys():
    program = build(
        "from repro.rng import rng_for\n"
        "def f(seed, name):\n"
        "    a = rng_for('fixed', seed=seed)\n"
        "    b = rng_for('salted', salt='s1', seed=seed)\n"
        "    c = rng_for(name, salt='s2', seed=seed)\n"
        "    return a, b, c\n"
    )
    keys = sorted(
        c.constant_key for c in program.rng_for_calls
        if c.constant_key is not None
    )
    assert keys == [("fixed", ""), ("salted", "s1")]
    dynamic = [
        c for c in program.rng_for_calls if c.constant_key is None
    ]
    assert len(dynamic) == 1


def test_rng203_collision_detected_across_files(tmp_path):
    (tmp_path / "one.py").write_text(
        "from repro.rng import rng_for\n"
        "def f(seed):\n"
        "    return rng_for('cross-file', seed=seed)\n"
    )
    (tmp_path / "two.py").write_text(
        "from repro.rng import rng_for\n"
        "def g(seed):\n"
        "    return rng_for('cross-file', seed=seed)\n"
    )
    violations = lint_paths([tmp_path])
    rng = [v for v in violations if v.rule == "RNG203"]
    assert len(rng) == 1
    assert rng[0].path.endswith("two.py")
    assert "one.py" in rng[0].message


# -- SNAP701 mutation test ---------------------------------------------

SNAPSHOT_FIXTURE = FIXTURES / "snap701_snapshot_completeness.py"


def covered_controller_source():
    """The CoveredController class, isolated from the seeded-bad ones."""
    text = SNAPSHOT_FIXTURE.read_text()
    start = text.index("class CoveredController")
    end = text.index("class LeakyController")
    return text[start:end]


def test_complete_snapshot_is_clean():
    source = covered_controller_source()
    assert '"counter": INT' in source
    assert [v.rule for v in lint_source(source)] == []


def test_snap701_fires_when_a_snapshot_field_is_deleted():
    """Mutation test: drop one field from the declaration and the
    completeness rule must catch it."""
    source = covered_controller_source()
    mutated = source.replace('        "history": Seq(INT),\n', "")
    assert mutated != source
    assert "self.history.append" in mutated  # the mutation site survives
    violations = lint_source(mutated)
    assert [v.rule for v in violations] == ["SNAP701"]
    assert "history" in violations[0].message


def test_snap701_fires_per_forgotten_field():
    source = (
        "class S(Snapshottable):\n"
        "    SNAPSHOT_FIELDS = {}\n"
        "    def __init__(self):\n"
        "        self.a = 0\n"
        "        self.b = 0\n"
        "    def tick(self):\n"
        "        self.a += 1\n"
        "        self.b += 1\n"
    )
    violations = lint_source(source)
    assert [v.rule for v in violations] == ["SNAP701", "SNAP701"]
    assert "S.a" in violations[0].message
    assert "S.b" in violations[1].message


def test_snap701_counts_external_writes():
    source = (
        "class S(Snapshottable):\n"
        "    SNAPSHOT_FIELDS = {}\n"
        "    def __init__(self):\n"
        "        self.a = 0\n"
        "\n"
        "def poke(s: S):\n"
        "    s.a = 5\n"
    )
    violations = lint_source(source)
    assert [v.rule for v in violations] == ["SNAP701"]
    assert "poke" in violations[0].message


def test_deep_attribute_writes_root_at_the_field():
    source = (
        "class S(Snapshottable):\n"
        "    SNAPSHOT_FIELDS = {}\n"
        "    def __init__(self):\n"
        "        self.rng = None\n"
        "    def reseed(self):\n"
        "        self.rng.bit_generator.state = {}\n"
    )
    violations = lint_source(source)
    assert [v.rule for v in violations] == ["SNAP701"]
    assert "S.rng" in violations[0].message


def test_snap701_flags_a_bespoke_pair_even_when_complete():
    """Mentioning every field is not enough: only the declaration
    counts, so a hand-written pair is flagged outright."""
    source = (
        "class S:\n"
        "    def __init__(self):\n"
        "        self.a = 0\n"
        "    def tick(self):\n"
        "        self.a += 1\n"
        "    def snapshot(self):\n"
        "        return {'a': self.a}\n"
        "    def restore(self, state):\n"
        "        self.a = state['a']\n"
    )
    violations = lint_source(source)
    assert [v.rule for v in violations] == ["SNAP701"]
    assert "SNAPSHOT_FIELDS" in violations[0].message
