"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``describe``              — the simulated system (Table I)
* ``list-mixes``            — the paper's 50 evaluation mixes
* ``characterize``          — Fig. 1 service characterisation
* ``run``                   — run one policy on one mix and print the timeline
  (``--trace``/``--jsonl``/``--metrics``/``--decisions-csv`` export the
  run's telemetry, ``--faults SPEC`` injects faults,
  ``--decision-budget`` caps the decision loop's virtual-time budget,
  and ``--stop-after``/``--save-state``/``--resume-state`` pause and
  resume a run crash-safely; see docs/observability.md and
  docs/robustness.md)
* ``experiment``            — regenerate one paper table/figure by name,
  one entry of ``repro.experiments.full_eval.EXPERIMENTS``
  (``--jobs``/``--checkpoint``/``--resume`` shard its grid entries —
  ``fig5c``, ``fig8``, ``ablations``, ``cluster``, ``scalability`` —
  across worker processes, ``--watch`` paints live fleet status to
  stderr mid-run and ``--jsonl`` writes the merged telemetry log; see
  docs/scaling.md)
* ``fleet status``          — inspect a fleet checkpoint file
* ``fault-study``           — hardened vs unhardened control under the
  default fault scenarios (docs/robustness.md); fleet-sharded with
  mix-qualified unit ids, so ``--jobs``/``--checkpoint``/``--resume``/
  ``--watch`` apply and one checkpoint covers a multi-mix sweep
* ``chaos``                 — the chaos/soak harness: kills and resumes
  runs mid-quantum, injects faults and deadline pressure, and asserts
  the robustness invariants (docs/robustness.md); exits 1 if any
  invariant broke
* ``report``                — run every ``experiment`` entry, write one
  markdown report
* ``top``                   — terminal status view of a JSONL telemetry
  log: rolling-window latency/power percentiles, QoS violations and
  fleet health (``--follow`` re-reads the log like ``top(1)``)
* ``dashboard``             — render a JSONL telemetry log into one
  self-contained HTML dashboard (inline SVG/CSS, no external assets)
* ``explain``               — render a run's per-quantum decision
  provenance (candidate sets, rejection reasons, budget meters, ladder
  rungs) as a human-readable "why" report (docs/observability.md)
* ``replay``                — re-execute one quantum from a crash-safe
  snapshot and byte-diff its provenance against the recorded log
  (the flight recorder's determinism cross-check)
* ``profile``               — deterministic virtual-cost profile of a
  run or JSONL log: top-N cost table, per-phase attribution, folded-
  stack (flamegraph.pl) and Chrome-trace export
* ``audit``                 — run one mix with the prediction-accuracy
  auditor attached: per-metric error percentiles against the oracle,
  EWMA drift flags, QoS-violation attribution (docs/observability.md)
* ``bench``                 — deterministic operation counters of the
  hot paths; writes BENCH.json, and ``--compare BASELINE.json`` is the
  regression gate (wall time is perfbench's, perfbench/README.md)
* ``serve``                 — run the scheduler daemon: an asyncio
  control plane accepting live job submissions over NDJSON/TCP (plus a
  read-only HTTP status surface) and ticking the decision-quantum loop
  on a virtual-time clock (docs/server.md)
* ``submit``                — submit one job to a running daemon and
  print its admission record (exit 1 when rejected on the spot)
* ``status``                — query a running daemon's status: quantum
  position, admission accept/reject counters, queue depth, job table
* ``lint``                  — project-specific static analysis
  (determinism / RNG-stream / unit-invariant / telemetry rules; see
  docs/static-analysis.md)

``--verbose/-v`` (repeatable) raises logging of the ``repro.*``
hierarchy to INFO then DEBUG.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, NamedTuple, Optional, Sequence

from repro.logs import configure as configure_logging

from repro.core.runtime import CuttleSysPolicy
from repro.experiments.full_eval import EXPERIMENTS
from repro.experiments.harness import (
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.experiments.policies import POLICIES, build_policy
from repro.fleet import CheckpointError, FleetError
from repro.snapshot import SnapshotError
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import Mix, paper_mixes


def _cmd_describe(args: argparse.Namespace) -> int:
    machine = build_machine_for_mix(paper_mixes()[0], seed=args.seed)
    print(machine.describe())
    print(f"reference max power: {machine.reference_max_power():.1f} W")
    return 0


def _cmd_list_mixes(args: argparse.Namespace) -> int:
    for i, mix in enumerate(paper_mixes()):
        apps = ", ".join(mix.batch_names[:5])
        print(f"{i:>2}  {mix.lc_name:<9} [{apps}, ...]")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.experiments.fig1_characterization import render_fig1, run_fig1

    services = [args.service] if args.service else None
    print(render_fig1(run_fig1(services=services)))
    return 0


class _OneMix(NamedTuple):
    """One policy on one mix, built from the single-run flags."""

    mix: Mix
    machine: Any
    policy: Any
    trace: LoadTrace
    #: ``power_cap_fraction``/``max_power_w``/``faults`` keywords, as
    #: ``run_policy`` and ``replay_quantum`` both take them.
    settings: Dict[str, Any]

    def run(self, n_slices: int, **kwargs: Any) -> Any:
        """``run_policy`` for ``n_slices`` quanta."""
        return run_policy(
            self.machine, self.policy, self.trace, n_slices=n_slices,
            **self.settings, **kwargs,
        )


def _one_mix(
    args: argparse.Namespace, policy: str = "cuttlesys"
) -> Optional[_OneMix]:
    """Build the run of ``run``/``audit``/``profile``/``replay``.

    Reads the flags of ``add_single_run_flags`` plus, where the verb
    has it, ``--decision-budget`` (which builds CuttleSys with that
    deadline).  A bad ``--mix`` or ``--faults`` prints a one-line
    error and returns None.
    """
    mixes = paper_mixes()
    if not 0 <= args.mix < len(mixes):
        print(f"error: mix index must be in [0, {len(mixes)})",
              file=sys.stderr)
        return None
    faults = None
    if getattr(args, "faults", None):
        from repro.faults import FaultInjector, FaultSpecError, parse_fault_spec

        try:
            specs = parse_fault_spec(args.faults)
        except FaultSpecError as exc:
            print(f"error: bad --faults spec: {exc}", file=sys.stderr)
            return None
        faults = FaultInjector(specs, seed=args.seed)
    mix = mixes[args.mix]
    reference = reference_power_for_mix(mix, seed=args.seed)
    budget = getattr(args, "decision_budget", None)
    if budget is None:
        machine, instance = build_policy(policy, mix, args.seed)
    else:
        from repro.core.controller import ControllerConfig

        machine = build_machine_for_mix(mix, seed=args.seed)
        instance = CuttleSysPolicy.for_machine(
            machine, seed=args.seed,
            config=ControllerConfig(seed=args.seed, decision_budget=budget),
        )
    return _OneMix(
        mix, machine, instance, LoadTrace.constant(args.load),
        {"power_cap_fraction": args.cap, "max_power_w": reference,
         "faults": faults},
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.stop_after is not None and not args.save_state:
        print("error: --stop-after requires --save-state", file=sys.stderr)
        return 2
    if args.resume_state and args.stop_after is not None:
        print("error: --resume-state cannot combine with --stop-after",
              file=sys.stderr)
        return 2
    needs_cuttlesys = (
        args.decision_budget is not None
        or args.stop_after is not None
        or args.resume_state
    )
    if needs_cuttlesys and args.policy != "cuttlesys":
        print("error: --decision-budget/--stop-after/--resume-state "
              "require --policy cuttlesys", file=sys.stderr)
        return 2
    setup = _one_mix(args, policy=args.policy)
    if setup is None:
        return 2
    resume_state = None
    if args.resume_state:
        import json

        try:
            with open(args.resume_state) as handle:
                resume_state = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.resume_state}: {exc}",
                  file=sys.stderr)
            return 2
    telemetry = None
    wants_telemetry = (
        args.trace or args.jsonl or args.metrics or args.decisions_csv
    )
    if wants_telemetry:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    run = setup.run(
        args.slices,
        telemetry=telemetry,
        stop_after=args.stop_after,
        resume_state=resume_state,
    )
    if args.save_state:
        if run.resume_state is None:
            print("error: run completed without pausing; nothing to save "
                  "(--stop-after must fall inside the run)",
                  file=sys.stderr)
            return 2
        import json

        from repro.snapshot import atomic_write_text

        try:
            atomic_write_text(
                args.save_state,
                json.dumps(run.resume_state, sort_keys=True) + "\n",
            )
        except OSError as exc:
            print(f"error: cannot write {args.save_state}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"paused at quantum {args.stop_after}; wrote "
              f"{args.save_state} (resume with --resume-state)")
    qos = setup.machine.lc_service.qos_latency_s
    print(f"mix {args.mix} ({setup.mix.lc_name}), cap {args.cap:.0%}, "
          f"load {args.load:.0%}, budget {run.power_budget_w:.1f} W")
    print("slice  LC config      cores  p99/QoS  power (W)")
    for i, m in enumerate(run.measurements):
        a = m.assignment
        label = a.lc_config.label if a.lc_config else "-"
        print(f"{i:>5}  {label:<13} {a.lc_cores:>5}  "
              f"{m.lc_p99 / qos:>7.2f}  {m.total_power:>9.1f}")
    print(run.summary())
    faults = setup.settings["faults"]
    if faults is not None:
        injected = ", ".join(
            f"{kind}={n}" for kind, n in sorted(faults.injected.items())
        ) or "none"
        print(f"faults injected: {injected} "
              f"({run.degraded_quanta} degraded quanta)")
    if telemetry is not None:
        try:
            if args.trace:
                n = telemetry.write_chrome_trace(args.trace)
                print(f"wrote {args.trace} ({n} trace events; open in "
                      f"chrome://tracing or ui.perfetto.dev)")
            if args.jsonl:
                n = telemetry.write_jsonl(args.jsonl)
                print(f"wrote {args.jsonl} ({n} lines)")
            if args.decisions_csv:
                n = telemetry.decisions_to_csv(args.decisions_csv)
                print(f"wrote {args.decisions_csv} ({n} quanta)")
        except OSError as exc:
            print(f"error: cannot write telemetry output: {exc}",
                  file=sys.stderr)
            return 2
        if args.metrics:
            print()
            print(telemetry.report())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry import read_jsonl
    from repro.telemetry.live import LiveAggregator, render_live_status

    def render_once() -> int:
        try:
            records = read_jsonl(args.log)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.log}: {exc}",
                  file=sys.stderr)
            return 2
        aggregator = LiveAggregator(window=args.window)
        aggregator.replay(records)
        print(render_live_status(aggregator))
        return 0

    if not args.follow:
        return render_once()
    # --follow re-reads the log on an interval, like top(1).  Wall
    # clock is fine here: the CLI surface sits outside the determinism
    # contract (cf. render_scalability's timing column).
    import time

    try:
        while True:
            print("\x1b[2J\x1b[H", end="")
            code = render_once()
            if code:
                return code
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.telemetry import read_jsonl, render_dashboard

    try:
        records = read_jsonl(args.log)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    html = render_dashboard(records, title=args.title)
    if not _write_text(args.out, html):
        return 2
    print(f"wrote {args.out} ({len(html)} bytes, self-contained)")
    return 0


def _watch_live(args: argparse.Namespace):
    """A ``LiveAggregator`` that repaints fleet status on stderr.

    Returns ``None`` unless ``--watch`` was given.  The live view goes
    to *stderr* so stdout stays byte-identical to a watch-less run —
    like the scalability table's timing column, the watch surface sits
    outside the determinism contract.
    """
    if not getattr(args, "watch", False):
        return None
    from repro.telemetry.live import LiveAggregator, render_live_status

    class _Watch(LiveAggregator):
        #: Events between stderr repaints (amortises terminal writes).
        _EVERY = 8

        def __init__(self) -> None:
            super().__init__()
            self._pending = 0

        def ingest_event(self, event) -> None:
            super().ingest_event(event)
            self._pending += 1
            if self._pending >= self._EVERY:
                self.repaint()

        def repaint(self) -> None:
            self._pending = 0
            print("\n" + render_live_status(self),
                  file=sys.stderr, flush=True)

    return _Watch()


def _write_text(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; on failure print a one-line error."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _emit_grid(args: argparse.Namespace, text: str, merged, live) -> int:
    """Print a grid verb's report after its last live repaint, then
    write the merged ``--jsonl`` log if one was asked for; returns the
    exit code (2 when the log cannot be written)."""
    if live is not None:
        live.repaint()
    print(text)
    if getattr(args, "jsonl", None):
        import json

        lines = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in merged
        )
        if not _write_text(args.jsonl, lines):
            return 2
        print(f"wrote {args.jsonl} ({len(merged)} lines)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.telemetry import read_jsonl, render_explain
    from repro.telemetry.provenance import provenance_records_from_jsonl

    try:
        records = read_jsonl(args.log)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    provenance = provenance_records_from_jsonl(records)
    if not provenance:
        print(f"error: {args.log} carries no provenance records "
              f"(written by runs with telemetry attached)",
              file=sys.stderr)
        return 1
    if args.quantum is not None:
        provenance = [
            r for r in provenance if r.get("quantum") == args.quantum
        ]
        if not provenance:
            print(f"error: no provenance record for quantum "
                  f"{args.quantum}", file=sys.stderr)
            return 1
    print("\n\n".join(render_explain(record) for record in provenance))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.replay import (
        ReplayMismatch, diff_provenance, replay_quantum,
    )
    from repro.telemetry import read_jsonl
    from repro.telemetry.provenance import provenance_records_from_jsonl

    setup = _one_mix(args)
    if setup is None:
        return 2
    try:
        with open(args.state) as handle:
            resume_state = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.state}: {exc}", file=sys.stderr)
        return 2
    try:
        records = read_jsonl(args.jsonl)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.jsonl}: {exc}", file=sys.stderr)
        return 2
    recorded = next(
        (r for r in provenance_records_from_jsonl(records)
         if r.get("quantum") == args.quantum),
        None,
    )
    if recorded is None:
        print(f"error: {args.jsonl} has no provenance record for "
              f"quantum {args.quantum}", file=sys.stderr)
        return 1
    try:
        reproduced = replay_quantum(
            setup.machine, setup.policy, setup.trace, resume_state,
            args.quantum, **setup.settings,
        )
    except ReplayMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    differences = diff_provenance(recorded, reproduced)
    if differences:
        print(f"replay MISMATCH at quantum {args.quantum}:")
        print("\n".join(differences))
        return 1
    print(f"replay OK: quantum {args.quantum} reproduced "
          f"byte-identically from {args.state}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.telemetry.profiler import (
        render_phase_table,
        render_profile_table,
        write_folded,
        write_profile_chrome_trace,
    )

    if args.log:
        from repro.telemetry import read_jsonl
        from repro.telemetry.profiler import build_profile

        try:
            records = read_jsonl(args.log)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.log}: {exc}", file=sys.stderr)
            return 2
        root = build_profile(records)
        source = args.log
    else:
        # No log: profile a fixed-seed in-process run (the CI smoke
        # path).  Identical flags → identical operation counters.
        from repro.telemetry import Telemetry
        from repro.telemetry.profiler import profile_telemetry

        setup = _one_mix(args)
        if setup is None:
            return 2
        telemetry = Telemetry()
        setup.run(args.slices, telemetry=telemetry)
        root = profile_telemetry(telemetry)
        source = (f"mix {args.mix}, {args.slices} quanta, "
                  f"seed {args.seed}")
    if not root.children:
        print("error: no spans to profile (was the log written with "
              "telemetry attached?)", file=sys.stderr)
        return 1
    try:
        if args.folded:
            n = write_folded(root, args.folded, weight=args.weight)
            print(f"wrote {args.folded} ({n} folded frames; feed to "
                  f"flamegraph.pl)", file=sys.stderr)
        if args.chrome:
            n = write_profile_chrome_trace(root, args.chrome)
            print(f"wrote {args.chrome} ({n} trace events)",
                  file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot write profile output: {exc}",
              file=sys.stderr)
        return 2
    if args.ops_only:
        # Deterministic surface only: byte-identical across runs,
        # hosts and --jobs levels (the CI diff gates this).
        print(render_profile_table(root, top=args.top, ops_only=True))
        return 0
    print(f"profile of {source}")
    print()
    print(render_profile_table(root, top=args.top))
    print()
    print(render_phase_table(root))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.telemetry import Telemetry, render_accuracy_report

    setup = _one_mix(args)
    if setup is None:
        return 2
    telemetry = Telemetry()
    telemetry.enable_accuracy_audit()
    run = setup.run(args.slices, telemetry=telemetry)
    print(f"mix {args.mix} ({setup.mix.lc_name}), cap {args.cap:.0%}, "
          f"load {args.load:.0%}, {args.slices} quanta")
    print(run.summary())
    print()
    print(render_accuracy_report(telemetry))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        BenchReport,
        case_names,
        compare_reports,
        render_comparison,
        render_report,
        run_bench,
    )

    if args.list:
        for name in case_names():
            print(name)
        return 0
    if args.input:
        try:
            current = BenchReport.read(args.input)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            current = run_bench(seed=args.seed, only=args.only)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_report(current))
    if args.out:
        try:
            current.write(args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    if args.compare:
        try:
            baseline = BenchReport.read(args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.compare}: {exc}",
                  file=sys.stderr)
            return 2
        comparison = compare_reports(
            current, baseline, threshold_pct=args.threshold,
        )
        print(render_comparison(comparison))
        return 0 if comparison.ok else 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    code = _fleet_flags_error(args)
    if code:
        return code
    entry = EXPERIMENTS[args.name]
    if not entry.grid and (args.jsonl or args.watch):
        grids = sorted(name for name, e in EXPERIMENTS.items() if e.grid)
        print("error: --jsonl and --watch apply only to the grid "
              f"experiments ({', '.join(grids)})", file=sys.stderr)
        return 2
    live = _watch_live(args)
    merged = [] if args.jsonl else None
    kwargs: Dict[str, Any] = {}
    if entry.grid:
        kwargs = {
            "seed": args.seed, "jobs": args.jobs,
            "checkpoint": args.checkpoint, "resume": args.resume,
            "merged_telemetry": merged, "live": live,
        }
    if args.name == "scalability":
        kwargs["include_timings"] = not args.no_timings
    return _emit_grid(
        args, entry.producer(args.slices, **kwargs), merged, live
    )


def _cmd_fault_study(args: argparse.Namespace) -> int:
    from repro.experiments.fault_study import (
        render_fault_study, run_fault_study, study_totals,
    )
    from repro.faults import scenario_by_name

    code = _fleet_flags_error(args)
    if code:
        return code
    try:
        for name in args.scenario or ():
            scenario_by_name(name, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    n_mixes = len(paper_mixes())
    for mix_index in args.mixes:
        if not 0 <= mix_index < n_mixes:
            print(f"error: mix index must be in [0, {n_mixes})",
                  file=sys.stderr)
            return 2
    # Unit ids are mix-qualified, so the whole multi-mix sweep is one
    # fleet run: one checkpoint file, one live aggregator, one table.
    live = _watch_live(args)
    outcomes = run_fault_study(
        mix_indices=args.mixes,
        cap=args.cap,
        load=args.load,
        n_slices=args.slices,
        seed=args.seed,
        scenarios=args.scenario or None,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        live=live,
    )
    _emit_grid(args, render_fault_study(outcomes), None, live)
    totals = study_totals(outcomes)
    hard = totals.get("hardened", {})
    if hard.get("aborted", 0):
        print("error: hardened controller aborted at least one run",
              file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos_study import (
        render_chaos_study, run_chaos_study,
    )
    from repro.faults import default_scenarios

    code = _fleet_flags_error(args)
    if code:
        return code
    known = {s.name for s in default_scenarios(args.seed)}
    scenarios: list = []
    for name in args.scenarios:
        if name == "fault-free":
            scenarios.append(None)
        elif name in known:
            scenarios.append(name)
        else:
            options = ", ".join(sorted(known) + ["fault-free"])
            print(f"error: unknown scenario {name!r}; expected one of "
                  f"{options}", file=sys.stderr)
            return 2
    budgets: list = []
    for value in args.budgets:
        if value == "inf":
            budgets.append(None)
        else:
            try:
                budgets.append(int(value))
            except ValueError:
                print(f"error: --budgets takes integers or 'inf', "
                      f"got {value!r}", file=sys.stderr)
                return 2
    if args.slices < 2:
        print("error: --slices must be at least 2 (the kill point must "
              "fall inside the run)", file=sys.stderr)
        return 2
    live = _watch_live(args)
    merged = [] if args.jsonl else None
    outcomes = run_chaos_study(
        seeds=tuple(args.seeds),
        mix_indices=tuple(args.mixes),
        scenarios=tuple(scenarios),
        budgets=tuple(budgets),
        n_slices=args.slices,
        cooldown=args.cooldown,
        load=args.load,
        cap=args.cap,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        merged_telemetry=merged,
        live=live,
    )
    code = _emit_grid(args, render_chaos_study(outcomes), merged, live)
    if code:
        return code
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        DEFAULT_CACHE_NAME,
        LintCache,
        build_program_context,
        describe_rules,
        lint_paths,
        render_graph,
        render_json,
        render_text,
    )

    if args.list_rules:
        print(describe_rules())
        return 0
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        import repro

        paths = [Path(repro.__file__).resolve().parent]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache = LintCache(Path(args.cache or DEFAULT_CACHE_NAME))
    violations = lint_paths(paths, cache=cache)
    if args.graph:
        program = build_program_context(paths)
        Path(args.graph).write_text(
            render_graph(program, args.graph), encoding="utf-8"
        )
        print(f"wrote call graph to {args.graph}", file=sys.stderr)
    print(render_json(violations) if args.json else render_text(violations))
    return 1 if violations else 0


def _cmd_report(args: argparse.Namespace) -> int:
    code = _fleet_flags_error(args)
    if code:
        return code
    from repro.experiments.full_eval import render_report, run_full_evaluation

    fleet_stats: dict = {}
    results = run_full_evaluation(
        n_slices=args.slices, only=args.only, jobs=args.jobs,
        checkpoint=args.checkpoint, resume=args.resume,
        fleet_stats=fleet_stats,
    )
    if not _write_text(
        args.out, render_report(results, fleet_stats=fleet_stats)
    ):
        return 2
    failed = [r.title for r in results if r.error is not None]
    print(f"wrote {args.out} ({len(results)} sections)")
    if failed:
        print("failed sections: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _fleet_flags_error(args: argparse.Namespace) -> int:
    """Validate the shared --jobs/--checkpoint/--resume flags.

    Returns 0 when consistent; prints to stderr and returns 2 otherwise
    (argparse cannot express the cross-flag dependency itself).
    """
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    return 0


def _server_port(args: argparse.Namespace) -> Optional[int]:
    """The daemon port from ``--port`` or ``--port-file``; None = error."""
    if args.port is not None:
        return args.port
    if args.port_file is not None:
        try:
            return int(open(args.port_file, encoding="utf-8").read().strip())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read port file: {exc}", file=sys.stderr)
            return None
    print("error: need --port or --port-file", file=sys.stderr)
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.admission import AdmissionLimits
    from repro.server.daemon import run_daemon
    from repro.server.driver import ServerConfig

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port if args.port is not None else 0,
            port_file=args.port_file,
            mix=args.mix,
            seed=args.seed,
            power_cap_fraction=args.power_cap,
            max_quanta=args.max_quanta,
            real_time=args.real_time,
            quantum_s=args.quantum_s,
            state_path=args.state,
            decisions_path=args.decisions,
            snapshot_every=args.snapshot_every,
            resume=args.resume,
            whatif_jobs=args.whatif_jobs,
            limits=AdmissionLimits(
                max_jobs_per_tenant=args.max_jobs_per_tenant,
                max_wait_quanta=args.max_wait_quanta,
            ),
        )
        run_daemon(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.server.script import ScriptedClient

    port = _server_port(args)
    if port is None:
        return 2
    request = {"op": "submit", "kind": args.kind, "name": args.name,
               "tenant": args.tenant, "priority": args.priority}
    if args.qos_ms is not None:
        request["qos_ms"] = args.qos_ms
    if args.rps is not None:
        request["rps"] = args.rps
    try:
        with ScriptedClient(args.host, port, args.timeout) as client:
            response = client.request(request)
    except (OSError, ConnectionError) as exc:
        print(f"error: cannot reach daemon: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(response, indent=2, sort_keys=True))
    if not response.get("ok"):
        return 1
    return 1 if response["job"]["state"] == "rejected" else 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.server.script import ScriptedClient

    port = _server_port(args)
    if port is None:
        return 2
    try:
        with ScriptedClient(args.host, port, args.timeout) as client:
            status = client.request({"op": "status"})
            jobs = client.request({"op": "jobs"})
    except (OSError, ConnectionError) as exc:
        print(f"error: cannot reach daemon: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {"status": status, "jobs": jobs.get("jobs", [])},
            indent=2, sort_keys=True,
        ))
        return 0
    driver = status.get("driver", {})
    admission = status.get("admission", {})
    print(f"quantum:    {driver.get('quantum')}"
          f" / {driver.get('max_quanta')}")
    print(f"mix/policy: {driver.get('mix')} / {driver.get('policy')}")
    print(f"budget:     {driver.get('power_budget_w'):.1f} W")
    print(f"violations: qos={driver.get('qos_violations')} "
          f"power={driver.get('power_violations')} "
          f"degraded={driver.get('degraded_quanta')}")
    print(f"admission:  submitted={admission.get('submitted')} "
          f"admitted={admission.get('admitted')} "
          f"rejected={admission.get('rejected')} "
          f"cancelled={admission.get('cancelled')} "
          f"timed_out={admission.get('timed_out')}")
    print(f"queue:      {admission.get('queued')} waiting, "
          f"{admission.get('running')} running, "
          f"max wait {admission.get('max_wait_quanta_seen')} quanta")
    for job in jobs.get("jobs", []):
        print(f"  [{job['state']:9s}] {job['job_id']} "
              f"{job['kind']}:{job['name']} "
              f"tenant={job['tenant']} priority={job['priority']}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import inspect_checkpoint

    payload = inspect_checkpoint(args.checkpoint_file)
    fingerprint = payload.get("fingerprint", {})
    completed = payload.get("completed", {})
    print(f"checkpoint: {args.checkpoint_file}")
    print(f"schema:     {payload.get('schema')}")
    print(f"fleet:      {fingerprint.get('fleet')}")
    print(f"seed:       {fingerprint.get('seed')}")
    stats = payload.get("stats")
    if stats:
        print(f"stats:      {json.dumps(stats, sort_keys=True)}")
    units = [unit["id"] for unit in fingerprint.get("units", [])]
    print(f"completed:  {len(completed)}/{len(units)} unit(s)")
    # Checkpoints that predate `executed_ids` cannot tell a freshly
    # executed unit from a restored one; fall back to the plain marker
    # for those.
    executed_ids = (
        set(stats["executed_ids"])
        if stats and "executed_ids" in stats else None
    )
    for unit_id in units:
        if unit_id not in completed:
            marker = "todo"
        elif executed_ids is not None and unit_id not in executed_ids:
            marker = "done (checkpoint)"
        else:
            marker = "done"
        print(f"  [{marker}] {unit_id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CuttleSys (MICRO 2020) reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="global random seed (default: 7)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v logs at INFO, -vv at DEBUG")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_single_run_flags(
        p: argparse.ArgumentParser,
        slices: Optional[int] = 10,
        faults: bool = True,
    ) -> None:
        """The one-mix run flags ``_one_mix`` reads."""
        p.add_argument("--mix", type=int, default=0,
                       help="mix index (0-49, default 0)")
        p.add_argument("--cap", type=float, default=0.7,
                       help="power cap fraction (default 0.7)")
        p.add_argument("--load", type=float, default=0.8,
                       help="LC load fraction (default 0.8)")
        if slices is not None:
            p.add_argument("--slices", type=int, default=slices,
                           help=f"decision quanta to run (default {slices})")
        if faults:
            p.add_argument("--faults", default=None, metavar="SPEC",
                           help="inject faults, e.g. "
                           "'drop_sample:rate=0.2;cap_drop:magnitude=0.6,"
                           "start=4' (see docs/robustness.md)")

    sub.add_parser("describe", help="print the simulated system (Table I)")
    sub.add_parser("list-mixes", help="print the paper's 50 mixes")

    characterize = sub.add_parser(
        "characterize", help="Fig. 1 service characterisation"
    )
    characterize.add_argument("--service", default=None,
                              help="restrict to one service")

    run = sub.add_parser("run", help="run one policy on one mix")
    add_single_run_flags(run)
    run.add_argument("--policy", choices=sorted(POLICIES), default="cuttlesys")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome trace_event JSON of the run")
    run.add_argument("--jsonl", default=None, metavar="PATH",
                     help="write the telemetry event log as JSON Lines")
    run.add_argument("--decisions-csv", default=None, metavar="PATH",
                     help="write per-quantum predicted-vs-measured CSV")
    run.add_argument("--metrics", action="store_true",
                     help="print the telemetry metrics report")
    run.add_argument("--decision-budget", type=int, default=None,
                     metavar="OPS",
                     help="virtual-time operation budget per decision "
                     "quantum; exhaustion walks the degradation ladder "
                     "(cuttlesys only; docs/robustness.md)")
    run.add_argument("--stop-after", type=int, default=None, metavar="K",
                     help="pause crash-safely after K quanta and write "
                     "the loop state to --save-state (cuttlesys only)")
    run.add_argument("--save-state", default=None, metavar="PATH",
                     help="where --stop-after writes the resume state")
    run.add_argument("--resume-state", default=None, metavar="PATH",
                     help="resume a run paused by --stop-after; other "
                     "flags must match the paused run")

    fault_study = sub.add_parser(
        "fault-study",
        help="hardened vs unhardened control under injected faults",
    )
    fault_study.add_argument("--mixes", type=int, nargs="+", default=[0],
                             help="mix indices to study (default: 0); "
                             "one --checkpoint covers the whole grid")
    fault_study.add_argument("--cap", type=float, default=0.7,
                             help="power cap fraction (default 0.7)")
    fault_study.add_argument("--load", type=float, default=0.7,
                             help="LC load fraction (default 0.7)")
    fault_study.add_argument("--slices", type=int, default=12,
                             help="decision quanta per run (default 12)")
    fault_study.add_argument("--scenario", nargs="*", default=None,
                             help="restrict to named default scenarios")

    def add_fleet_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes; output is byte-identical "
                       "to --jobs 1 (default 1; see docs/scaling.md)")
        p.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="snapshot completed work units to PATH")
        p.add_argument("--resume", action="store_true",
                       help="skip units already in --checkpoint")

    def add_watch_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--watch", action="store_true",
                       help="paint live fleet status to stderr while "
                       "the run streams (stdout stays byte-stable)")

    add_fleet_flags(fault_study)
    add_watch_flag(fault_study)

    chaos = sub.add_parser(
        "chaos",
        help="chaos/soak harness: kill/resume cycles, faults and "
        "deadline pressure vs the robustness invariants "
        "(docs/robustness.md)",
    )
    chaos.add_argument("--seeds", type=int, nargs="+", default=[7],
                       help="replayable seeds to soak (default: 7); "
                       "each seed also picks a different kill point")
    chaos.add_argument("--mixes", type=int, nargs="+", default=[0, 12],
                       help="mix indices to soak (default: 0 12)")
    chaos.add_argument("--scenarios", nargs="+",
                       default=["fault-free", "sensor-noise",
                                "perfect-storm"],
                       help="fault scenarios (default-scenario names "
                       "plus 'fault-free')")
    chaos.add_argument("--budgets", nargs="+", default=["inf", "2000"],
                       help="decision budgets in operations, or 'inf' "
                       "(default: inf 2000)")
    chaos.add_argument("--slices", type=int, default=10,
                       help="decision quanta per run (default 10)")
    chaos.add_argument("--cooldown", type=int, default=8,
                       help="fault-free quanta granted for safe-mode "
                       "exit (default 8)")
    chaos.add_argument("--load", type=float, default=0.7,
                       help="LC load fraction (default 0.7)")
    chaos.add_argument("--cap", type=float, default=0.7,
                       help="power cap fraction (default 0.7)")
    chaos.add_argument("--jsonl", default=None, metavar="PATH",
                       help="write the per-cell telemetry, merged into "
                       "one canonical JSONL session log")
    add_fleet_flags(chaos)
    add_watch_flag(chaos)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--slices", type=int, default=8,
                            help="quanta for run-based experiments")
    add_fleet_flags(experiment)
    add_watch_flag(experiment)
    experiment.add_argument("--jsonl", default=None, metavar="PATH",
                            help="grid experiments: write the per-unit "
                            "telemetry, merged into one canonical JSONL "
                            "session log")
    experiment.add_argument("--no-timings", action="store_true",
                            help="drop wall-clock columns from the "
                            "scalability table (byte-stable output)")

    report = sub.add_parser(
        "report", help="run the full evaluation and write a markdown report"
    )
    report.add_argument("--out", default="evaluation_report.md",
                        help="output path (default: evaluation_report.md)")
    report.add_argument("--slices", type=int, default=8,
                        help="quanta for run-based experiments")
    report.add_argument("--only", nargs="*", default=None,
                        help="substring filters on section titles")
    add_fleet_flags(report)

    fleet = sub.add_parser(
        "fleet",
        help="inspect fleet checkpoints (docs/scaling.md)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_status = fleet_sub.add_parser(
        "status", help="inspect a fleet checkpoint file"
    )
    fleet_status.add_argument("checkpoint_file", metavar="CHECKPOINT",
                              help="checkpoint written by --checkpoint")

    top = sub.add_parser(
        "top",
        help="terminal status view of a JSONL telemetry log "
        "(docs/observability.md)",
    )
    top.add_argument("log", help="JSONL log written by `run --jsonl` "
                     "or `experiment ... --jsonl`")
    top.add_argument("--follow", action="store_true",
                     help="re-read the log on an interval, like top(1)")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="--follow refresh interval (default 2.0)")
    top.add_argument("--window", type=int, default=256,
                     help="rolling-window size in quanta (default 256)")

    dashboard = sub.add_parser(
        "dashboard",
        help="render a JSONL telemetry log into one self-contained "
        "HTML dashboard",
    )
    dashboard.add_argument("log", help="JSONL log written by "
                           "`run --jsonl` or `experiment ... --jsonl`")
    dashboard.add_argument("-o", "--out", default="dashboard.html",
                           help="output path (default: dashboard.html)")
    dashboard.add_argument("--title", default="repro run dashboard",
                           help="dashboard page title")

    explain = sub.add_parser(
        "explain",
        help="render a run's per-quantum decision provenance as a "
        "human-readable 'why' report (docs/observability.md)",
    )
    explain.add_argument("log", help="JSONL log written by `run --jsonl` "
                         "or `experiment ... --jsonl`")
    explain.add_argument("--quantum", type=int, default=None, metavar="N",
                         help="restrict to one quantum "
                         "(default: every recorded quantum)")

    replay = sub.add_parser(
        "replay",
        help="re-execute one quantum from a crash-safe snapshot and "
        "byte-diff its provenance against the recorded log",
    )
    replay.add_argument("--state", required=True, metavar="PATH",
                        help="resume state written by "
                        "`run --stop-after K --save-state PATH`")
    replay.add_argument("--jsonl", required=True, metavar="PATH",
                        help="JSONL log of the full (uninterrupted) run")
    replay.add_argument("--quantum", type=int, required=True, metavar="N",
                        help="quantum to reproduce (>= the snapshot's "
                        "pause point)")
    # The run flags must repeat those of the original run.
    add_single_run_flags(replay, slices=None)
    replay.add_argument("--decision-budget", type=int, default=None,
                        metavar="OPS",
                        help="decision budget of the original run")

    profile = sub.add_parser(
        "profile",
        help="deterministic virtual-cost profile: top-N cost table, "
        "phase attribution, flame-graph export",
    )
    profile.add_argument("log", nargs="?", default=None,
                         help="JSONL log to profile (default: profile a "
                         "fixed-seed in-process run)")
    # Run flags of the in-process run (no log given).
    add_single_run_flags(profile, slices=3, faults=False)
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the top-costs table (default 15)")
    profile.add_argument("--ops-only", action="store_true",
                         help="print only the deterministic operation-"
                         "counter table (byte-identical across runs "
                         "and --jobs levels; what CI diffs)")
    profile.add_argument("--folded", default=None, metavar="PATH",
                         help="write flamegraph.pl-compatible folded "
                         "stacks")
    profile.add_argument("--weight", default="exclusive_us",
                         choices=["exclusive_us", "ops", "count"],
                         help="folded-stack weight (default: "
                         "exclusive_us; 'ops' is deterministic)")
    profile.add_argument("--chrome", default=None, metavar="PATH",
                         help="write the merged call tree as a Chrome "
                         "trace_event JSON")

    audit = sub.add_parser(
        "audit",
        help="run one mix with the prediction-accuracy auditor attached",
    )
    add_single_run_flags(audit)

    bench = sub.add_parser(
        "bench",
        help="deterministic operation-counter gate of the hot paths",
    )
    bench.add_argument("--only", nargs="+", default=None, metavar="CASE",
                       help="restrict to named cases (see --list)")
    bench.add_argument("--list", action="store_true",
                       help="list the benchmark case names and exit")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="write the BENCH.json report")
    bench.add_argument("--input", default=None, metavar="PATH",
                       help="load a previously written BENCH.json instead "
                       "of re-running (for gating an existing artifact)")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="compare against a baseline BENCH.json; "
                       "exit 1 on regression")
    bench.add_argument("--threshold", type=float, default=10.0,
                       metavar="PCT",
                       help="regression threshold percent (default 10)")

    serve = sub.add_parser(
        "serve",
        help="run the scheduler daemon (docs/server.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default: ephemeral; see --port-file)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening")
    serve.add_argument("--mix", type=int, default=0,
                       help="paper mix index (default: 0)")
    serve.add_argument("--power-cap", type=float, default=0.7,
                       help="power budget as a fraction of the reference "
                       "(default: 0.7)")
    serve.add_argument("--max-quanta", type=int, default=100000,
                       help="hard ceiling on quanta served")
    serve.add_argument("--real-time", action="store_true",
                       help="tick every --quantum-s wall seconds instead "
                       "of on client 'tick' requests (outside the "
                       "determinism contract)")
    serve.add_argument("--quantum-s", type=float, default=0.1,
                       help="wall seconds per quantum under --real-time")
    serve.add_argument("--state", default=None, metavar="PATH",
                       help="crash-safe snapshot file (enables resume)")
    serve.add_argument("--decisions", default=None, metavar="PATH",
                       help="append the decision stream here as JSONL")
    serve.add_argument("--snapshot-every", type=int, default=1,
                       help="ticks between snapshots (default: 1)")
    serve.add_argument("--resume", action="store_true",
                       help="resume from --state if it exists")
    serve.add_argument("--whatif-jobs", type=int, default=2,
                       help="worker processes of the what-if probe "
                       "pool (default: 2)")
    serve.add_argument("--max-jobs-per-tenant", type=int, default=8)
    serve.add_argument("--max-wait-quanta", type=int, default=16)

    submit = sub.add_parser(
        "submit",
        help="submit one job to a running daemon",
    )
    status = sub.add_parser(
        "status",
        help="query a running daemon's status and job table",
    )
    for client_parser in (submit, status):
        client_parser.add_argument("--host", default="127.0.0.1")
        client_parser.add_argument("--port", type=int, default=None)
        client_parser.add_argument("--port-file", default=None,
                                   metavar="PATH",
                                   help="read the daemon port from here")
        client_parser.add_argument("--timeout", type=float, default=30.0)
    submit.add_argument("--kind", choices=("lc", "batch"), required=True)
    submit.add_argument("--name", required=True,
                        help="LC service or batch application name")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--qos-ms", type=float, default=None,
                        help="target p99 latency (LC; default: the "
                        "service's calibrated target)")
    submit.add_argument("--rps", type=float, default=None,
                        help="offered arrival rate (LC jobs)")
    status.add_argument("--json", action="store_true",
                        help="emit the raw status/jobs JSON")

    lint = sub.add_parser(
        "lint",
        help="project-specific static analysis (docs/static-analysis.md)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint "
                      "(default: the installed repro package)")
    lint.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON report")
    lint.add_argument("--list-rules", action="store_true",
                      help="describe every rule and the suppression syntax")
    lint.add_argument("--graph", default=None, metavar="PATH",
                      help="export the whole-program call graph "
                      "(Graphviz DOT for .dot/.gv suffixes, else JSON)")
    lint.add_argument("--cache", default=None, metavar="PATH",
                      help="lint result cache file (default: "
                      ".repro-lint-cache.json in the working directory)")
    lint.add_argument("--no-cache", action="store_true",
                      help="bypass the content-hash result cache")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging(args.verbose)
    handlers = {
        "describe": _cmd_describe,
        "report": _cmd_report,
        "list-mixes": _cmd_list_mixes,
        "characterize": _cmd_characterize,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "fault-study": _cmd_fault_study,
        "chaos": _cmd_chaos,
        "top": _cmd_top,
        "dashboard": _cmd_dashboard,
        "explain": _cmd_explain,
        "replay": _cmd_replay,
        "profile": _cmd_profile,
        "audit": _cmd_audit,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "fleet": _cmd_fleet,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
    }
    try:
        return handlers[args.command](args)
    except (CheckpointError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
