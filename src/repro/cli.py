"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compile
    Compile a policy (DSL file or ``--chain a,b,c``) and print the
    service graph, the per-pair Algorithm 1 verdicts, and the generated
    CT/FT tables.
measure
    Run a chain on the simulated testbed under NFP / OpenNetVM / BESS
    and print latency, throughput, and overhead.  ``--telemetry``
    additionally collects and prints per-NF metrics for the NFP runs;
    ``--json`` dumps the results as JSON instead of the ASCII table.
monitor
    Run a chain with the windowed time-series sampler armed: live
    firing/cleared alert lines from declarative watch rules
    (``--watch 'ring.occupancy > 0.8 for 3 windows'``, ``--slo-us``),
    then an ASCII sparkline dashboard, the per-packet critical-path
    attribution table, and optionally a Prometheus text exposition
    (``--prom``).  ``--faults`` injects failures to watch the episode.
autoscale
    Drive a time-varying load shape (flash crowd, diurnal, burst
    trains) against a chain with one NF under an autoscaling policy:
    watch rules fire on windowed telemetry, membership changes execute
    live (classifier hold, drain barrier, stateful handover), and the
    summary compares elastic core-seconds against static peak
    provisioning next to the conservation ledger.
bench
    Run every registered model-clock scenario at its own budget and
    seed (``--out`` writes the report; ``benchmarks/results/baseline.json``
    is the pinned one), or diff two reports (``--compare old.json
    new.json``) with ``==`` and exit 1 on any difference.
trace
    Run a chain with packet-lifecycle tracing enabled; write a Chrome
    ``trace_event`` file (chrome://tracing / Perfetto) and print the
    per-NF summary table.
pairs
    Print the §4.3 parallelizability matrix and summary statistics.
fuzz
    Differential fuzzing: random valid policies + adversarial traffic
    through the sequential reference, the functional parallel dataplane,
    and the timed DES dataplane; failures are delta-debug-shrunk to a
    committable JSON seed + pytest repro.  ``--audit-profiles`` arms the
    fourth oracle: recorded field accesses are cross-checked against the
    declared action table per case.
profile-audit
    Run NFs over adversarial generated traffic with the access recorder
    attached, infer per-kind footprints, and print the inferred vs
    declared table; exits non-zero on any undeclared access.
sweep
    Plot a Fig. 9-style busy-cycle sweep or a Fig. 11-style degree
    sweep as a terminal chart.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .core import (
    CompiledGraph,
    Orchestrator,
    Parallelism,
    Policy,
    parse_policy,
    table_view,
)
from .eval import (
    compute_pair_statistics,
    forced_parallel,
    forced_sequential,
    measure_bess,
    measure_nfp,
    measure_onvm,
    render_table,
)
from .eval.plots import ascii_plot

__all__ = ["main"]


def _chain_from(args) -> List[str]:
    if not args.chain:
        raise SystemExit("--chain a,b,c is required")
    return [part.strip() for part in args.chain.split(",") if part.strip()]


def _load_policy(args) -> Policy:
    if args.policy:
        with open(args.policy) as handle:
            return parse_policy(handle.read(), name=args.policy)
    return Policy.from_chain(_chain_from(args))


def _spark_row(label: str, values) -> None:
    """Print one series as a sparkline row; silent when it is all zero."""
    from .telemetry import sparkline

    values = list(values)
    if values and any(values):
        print(f"{label:<24s} {sparkline(values):<60s} peak {max(values):.4g}")


def _peaks(series) -> Dict[str, Dict[str, float]]:
    """Every sampled metric's peak value and the window it fell in."""
    return {
        name: {"value": peak[0], "window": peak[1]}
        for name in series.metric_names()
        if (peak := series.peak(name)) is not None
    }


def cmd_compile(args) -> int:
    orch = Orchestrator()
    policy = _load_policy(args)
    result = orch.compile(policy)
    graph = result.graph
    print(f"graph            : {graph.describe()}")
    print(f"equivalent length: {graph.equivalent_length}")
    print(f"packet versions  : {graph.num_versions} "
          f"({graph.num_versions - 1} copies)")
    print(f"merger count     : {graph.total_count}")
    if graph.merge_ops:
        print(f"merge operations : {graph.merge_ops}")
    for warning in result.warnings:
        print(f"warning          : {warning}")
    if args.verbose:
        print("\npairwise verdicts:")
        for (a, b), verdict in sorted(result.decisions.items()):
            print(f"  {a} before {b}: {verdict.classification.value}")
        deployed = orch.deploy(policy)
        ct_row, forwarding = table_view(CompiledGraph(deployed.graph),
                                        deployed.tables.ct_entry)
        print(f"\nCT: {ct_row}")
        for nf, actions in forwarding.items():
            print(f"FT[{nf}]: {actions}")
    return 0


def cmd_measure(args) -> int:
    import json

    from .bench.schema import measurement_to_dict
    from .telemetry import TelemetryHub, nf_summary_table

    chain = _chain_from(args)
    rows = []
    results = []
    hub = (TelemetryHub()
           if (args.telemetry or args.timeseries) else None)
    sampler = None
    if args.timeseries:
        from .telemetry import Sampler

        # Windows delta from zero, so only the first NFP-family run can
        # be sampled against a shared hub.
        sampler = Sampler(hub)
    scale_out = args.instances if args.instances > 1 else None
    armed_sampler = None
    systems = args.systems.split(",")
    for system in systems:
        system = system.strip().lower()
        run_sampler = sampler if system in ("nfp", "nfp-seq") else None
        if run_sampler is not None:
            armed_sampler = run_sampler
            sampler = None
        if system == "nfp":
            graph = Orchestrator().compile(Policy.from_chain(chain)).graph
            result = measure_nfp(graph, packets=args.packets, telemetry=hub,
                                 instances=scale_out,
                                 sampler=run_sampler)
        elif system == "nfp-seq":
            result = measure_nfp(forced_sequential(chain), packets=args.packets,
                                 telemetry=hub, instances=scale_out,
                                 sampler=run_sampler)
        elif system == "onvm":
            result = measure_onvm(chain, packets=args.packets)
        elif system == "bess":
            result = measure_bess(chain, num_cores=len(chain) + 2,
                                  packets=args.packets)
        else:
            raise SystemExit(f"unknown system {system!r}")
        results.append(result)
        rows.append([
            result.system, result.label, result.latency_mean_us,
            result.latency_p99_us, result.throughput_mpps,
            result.bottleneck, result.resource_overhead * 100,
        ])
    if args.json:
        document = {"chain": chain, "packets": args.packets,
                    "results": [measurement_to_dict(r) for r in results]}
        if hub is not None:
            document["telemetry"] = hub.registry.snapshot()
        if armed_sampler is not None:
            series = armed_sampler.series
            document["timeseries"] = {
                "window_us": armed_sampler.window_us,
                "windows": series.total_windows,
                "peaks": _peaks(series),
            }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(render_table(
        ["system", "graph", "lat us", "p99 us", "Mpps", "bottleneck",
         "overhead %"], rows))
    if hub is not None and hub.registry.counters:
        print("\nper-NF telemetry (NFP runs):")
        print(nf_summary_table(hub.registry))
        print(f"\ncopies: full={hub.registry.counter_value('copy.full')} "
              f"header={hub.registry.counter_value('copy.header')}  "
              f"ring hops: {hub.registry.counter_value('ring.hops')}  "
              f"merged: {hub.registry.counter_value('merger.merged')}")
    if armed_sampler is not None:
        series = armed_sampler.series
        print(f"\ntime series (first NFP run, "
              f"{series.total_windows} x {armed_sampler.window_us:g} us):")
        _spark_row("tx pkts/window", series.counter_values("tx.packets"))
        _spark_row("p99 latency us", (
            v for _, v in series.percentile_series("latency_us", 99)))
        _spark_row("ring occupancy", series.values("ring.occupancy"))
    return 0


def cmd_trace(args) -> int:
    """Trace packet lifecycles through a compiled graph (Chrome export)."""
    from .telemetry import (
        TelemetryHub,
        Tracer,
        events_to_jsonl,
        nf_summary_table,
        write_chrome_trace,
    )

    policy = _load_policy(args)
    graph = Orchestrator().compile(policy).graph
    tracer = Tracer(max_events=args.max_events)
    hub = TelemetryHub(tracer=tracer)
    result = measure_nfp(graph, packets=args.packets, telemetry=hub)

    traces = tracer.traces()
    complete = sum(1 for trace in traces.values() if trace.is_complete())
    written = write_chrome_trace(tracer.events, args.out)

    print(f"graph          : {graph.describe()}")
    print(f"packets traced : {len(traces)} ({complete} complete lifecycles)")
    print(f"span events    : {len(tracer)} "
          f"(overflowed: {tracer.overflow})")
    print(f"chrome trace   : {args.out} ({written} trace events) "
          f"-- open in chrome://tracing or https://ui.perfetto.dev")
    if args.jsonl:
        count = events_to_jsonl(tracer.events, args.jsonl)
        print(f"jsonl dump     : {args.jsonl} ({count} lines)")
    print(f"mean latency   : {result.latency_mean_us:.1f} us  "
          f"p99: {result.latency_p99_us:.1f} us  "
          f"tput: {result.throughput_mpps:.2f} Mpps\n")
    print(nf_summary_table(hub.registry))
    return 0


def cmd_monitor(args) -> int:
    """Run a chain with windowed telemetry, watch rules and live alerts."""
    import json

    from .telemetry import (
        Sampler,
        TelemetryHub,
        Tracer,
        Watcher,
        critpath_report,
        write_prometheus,
    )

    policy = _load_policy(args)
    graph = Orchestrator().compile(policy).graph
    tracer = Tracer()
    hub = TelemetryHub(tracer=tracer)
    sampler = Sampler(hub, window_us=args.window_us)

    rules = list(args.watch or [])
    if not rules:
        rules = ["ring.occupancy > 0.8 for 3 windows",
                 "merger.at_timeout > 0"]
    if args.slo_us is not None and not any("slo" in r for r in rules):
        rules.append("p99_us > slo")
    watcher = Watcher(rules, slo_us=args.slo_us, hub=hub).attach(sampler)
    if not args.json:
        watcher.on_alert(lambda event: print(event.describe()))

    scale_out = args.instances if args.instances > 1 else None
    result = measure_nfp(graph, packets=args.packets, telemetry=hub,
                         instances=scale_out, faults=args.faults,
                         sampler=sampler)

    series = sampler.series
    report = critpath_report(tracer.traces().values())

    if args.prom:
        write_prometheus(hub.registry, args.prom)

    if args.json:
        document = {
            "graph": graph.describe(),
            "packets": args.packets,
            "windows": series.total_windows,
            "window_us": sampler.window_us,
            "latency_p99_us": result.latency_p99_us,
            "throughput_mpps": result.throughput_mpps,
            "alerts": {
                "fired": watcher.fired,
                "cleared": watcher.cleared,
                "still_firing": [r.text for r in watcher.still_firing()],
                "events": [
                    {"rule": e.rule, "state": e.state, "ts_us": e.ts_us,
                     "window": e.window_index, "value": e.value,
                     "threshold": e.threshold}
                    for e in watcher.events
                ],
            },
            "peaks": _peaks(series),
            "critical_path": report.to_dict(),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    drops = [
        float(sum(v for k, v in w.counters.items() if k.startswith("drops.")))
        for w in series.windows
    ]

    print(f"\ngraph   : {graph.describe()}")
    print(f"windows : {series.total_windows} x {sampler.window_us:g} us  "
          f"(p99 {result.latency_p99_us:.1f} us, "
          f"{result.throughput_mpps:.2f} Mpps)")
    _spark_row("tx pkts/window", series.counter_values("tx.packets"))
    _spark_row("p99 latency us", (
        v for _, v in series.percentile_series("latency_us", 99)))
    _spark_row("ring occupancy (max)", series.values("ring.occupancy"))
    _spark_row("AT depth", series.values("at.depth"))
    _spark_row("drops/window", drops)
    pinned = hub.registry.counter_value("rss.pinned_flows")
    if pinned:
        print(f"rss.pinned_flows: {pinned} (keyless traffic on instance 0)")

    print(f"\nalerts  : {watcher.fired} fired, {watcher.cleared} cleared"
          + (f", still firing: {[r.text for r in watcher.still_firing()]}"
             if watcher.still_firing() else ""))
    for rule in watcher.rules:
        print(f"  watch {rule.text!r}: fired={rule.fired} "
              f"cleared={rule.cleared}")

    if report.count:
        print("\ncritical path (per-packet, mean vs p99 cohort):")
        print(report.table())
        dominant = report.dominant_tail_segment()
        if dominant:
            delta = report.tail_delta()[dominant]
            print(f"p99 attribution: '{dominant}' dominates the tail "
                  f"(+{delta:.2f} us vs mean)")
    if args.prom:
        print(f"\nprometheus exposition: {args.prom}")
    return 0


def cmd_autoscale(args) -> int:
    """Drive a time-varying load against an elastically scaled chain."""
    import json

    from .autoscale import ScalePolicy
    from .eval.harness import measure_autoscale
    from .telemetry import TelemetryHub
    from .traffic import (
        BurstTrainShape,
        ConstantShape,
        DiurnalShape,
        FlashCrowdShape,
    )

    policy = _load_policy(args)
    graph = Orchestrator().compile(policy).graph
    if args.nf not in graph.nf_names():
        raise SystemExit(f"--nf {args.nf!r} is not an NF of the chain "
                         f"({', '.join(graph.nf_names())})")

    base, peak = args.base_mpps, args.peak_mpps
    horizon = args.packets / (base * 2.0)
    if args.shape == "flash":
        shape = FlashCrowdShape(
            base_mpps=base, peak_mpps=peak,
            start_us=0.2 * horizon, ramp_us=0.1 * horizon,
            hold_us=0.35 * horizon, decay_us=0.15 * horizon)
    elif args.shape == "diurnal":
        shape = DiurnalShape(base_mpps=base, peak_mpps=peak,
                             period_us=horizon)
    elif args.shape == "bursts":
        shape = BurstTrainShape(base_mpps=base, burst_mpps=peak,
                                period_us=horizon / 8.0,
                                burst_len_us=horizon / 32.0)
    else:
        shape = ConstantShape(base)

    window_us = args.window_us
    if window_us is None:
        window_us = max(10.0, horizon / 100.0)
    scale_policy = ScalePolicy(
        args.nf,
        min_instances=args.min_instances,
        max_instances=args.max_instances,
        up_rule=args.up_rule,
        down_rule=args.down_rule,
        cooldown_us=(3.0 * window_us if args.cooldown_us is None
                     else args.cooldown_us),
    )
    hub = TelemetryHub()
    orch = Orchestrator()
    result = measure_autoscale(
        graph, scale_policy, shape,
        packets=args.packets, seed=args.seed, telemetry=hub,
        num_flows=args.num_flows, popularity=args.popularity,
        window_us=window_us, orchestrator=orch,
    )
    scaler = result.scaler
    watcher = scaler.watcher
    conservation = result.conservation
    series = result.sampler.series

    if args.json:
        document = {
            "graph": graph.describe(),
            "shape": args.shape,
            "packets": args.packets,
            "windows": series.total_windows,
            "window_us": window_us,
            "latency_p99_us": result.measurement.latency_p99_us,
            "duration_us": result.duration_us,
            "policy": {
                "nf": scale_policy.name,
                "min": scale_policy.min_instances,
                "max": scale_policy.max_instances,
                "up_rule": scale_policy.up_rule,
                "down_rule": scale_policy.down_rule,
            },
            "alerts": {"fired": watcher.fired, "cleared": watcher.cleared},
            "decisions": [
                {"ts_us": d.ts_us, "direction": d.direction,
                 "target": d.target, "aborted": d.aborted,
                 "outcome": d.outcome}
                for d in scaler.decisions
            ],
            "cores": {
                "peak": result.peak_cores,
                "elastic_core_us": result.core_us,
                "static_peak_core_us": result.static_peak_core_us,
                "savings_fraction": result.core_savings_fraction,
            },
            "conservation": conservation,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if conservation["unaccounted"] == 0 else 1

    print(f"\ngraph   : {graph.describe()}")
    print(f"shape   : {args.shape} {base:g}->{peak:g} Mpps over "
          f"{result.duration_us:.0f} us")
    print(f"policy  : {scale_policy.name} "
          f"{scale_policy.min_instances}..{scale_policy.max_instances}  "
          f"up[{scale_policy.up_rule}]  down[{scale_policy.down_rule}]")
    print(f"windows : {series.total_windows} x {window_us:g} us  "
          f"(p99 {result.measurement.latency_p99_us:.1f} us)")
    _spark_row("ring occupancy (max)", series.values("ring.occupancy"))

    print()
    for event in watcher.events:
        print(event.describe())
    for decision in scaler.decisions:
        outcome = decision.outcome or {}
        status = "ABORTED" if decision.aborted else (
            f"{outcome.get('from', '?')}->{outcome.get('to', '?')} "
            f"moved={outcome.get('moved_flows', 0)} "
            f"handover={outcome.get('handover_flows', 0)} "
            f"barrier={outcome.get('barrier_us', 0.0):.1f}us")
        print(f"[{decision.ts_us:12.1f}us] SCALE-{decision.direction.upper()} "
              f"{scale_policy.name} -> {decision.target} ({status})")

    print(f"\nalerts  : {watcher.fired} fired, {watcher.cleared} cleared")
    print(f"scale   : {scaler.scale_ups} up, {scaler.scale_downs} down "
          f"(peak {result.peak_cores} cores)")
    print(f"cores   : elastic {result.core_us:.0f} core-us vs static-peak "
          f"{result.static_peak_core_us:.0f} core-us "
          f"({result.core_savings_fraction * 100:.1f}% saved)")
    drops = ", ".join(f"{k}={v}" for k, v in conservation["drops"].items())
    print(f"ledger  : injected={conservation['injected']} "
          f"emitted={conservation['emitted']} "
          f"drops[{drops}] unaccounted={conservation['unaccounted']}")
    record = orch.get(scaler.mid).scaled
    print(f"record  : {record.describe()}")
    return 0 if conservation["unaccounted"] == 0 else 1


def cmd_fuzz(args) -> int:
    """Differential fuzzing of sequential vs parallel execution."""
    from .check import replay_corpus, run_fuzz
    from .telemetry import TelemetryHub

    hub = TelemetryHub()
    include_des = not args.no_des
    if args.instances < 1:
        raise SystemExit("--instances must be >= 1")

    if args.replay:
        results = replay_corpus(args.replay, include_des=include_des,
                                telemetry=hub, instances=args.instances,
                                audit_profiles=args.audit_profiles)
        failures = 0
        for path, outcome in results:
            status = "ok" if outcome.ok else f"FAIL {outcome.kind}"
            print(f"{status:<20s} {path}")
            if not outcome.ok:
                failures += 1
                print(f"    {outcome.detail}")
        print(f"\nreplayed {len(results)} corpus cases, {failures} failing")
        return 1 if failures else 0

    faults = tuple(
        kind.strip() for kind in (args.faults or "").split(",") if kind.strip()
    )
    if faults and args.audit_profiles:
        raise SystemExit(
            "--audit-profiles cannot be combined with --faults: injected "
            "crashes drop packets inside the NF scope and would be "
            "misattributed as undeclared drops")
    report = run_fuzz(
        cases=args.cases,
        seed=args.seed,
        max_seconds=args.max_seconds,
        include_des=include_des,
        packets_per_case=args.packets,
        max_nfs=args.max_nfs,
        inject=args.inject_bug or (),
        telemetry=hub,
        out_dir=args.out_dir,
        stop_after=args.stop_after,
        shrink=not args.no_shrink,
        log=lambda line: print(f"  {line}"),
        instances=args.instances,
        faults=faults,
        audit_profiles=args.audit_profiles,
    )

    counters = hub.registry
    print(f"\nseed        : {report.seed}")
    print(f"cases       : {report.cases} "
          f"({report.cases_per_s:.1f}/s over {report.duration_s:.1f}s)")
    print(f"packets     : {report.packets}")
    if faults:
        print(f"faults      : {','.join(faults)} "
              f"(injected {counters.counter_value('faults.injected')}, "
              f"AT timeouts {counters.counter_value('merger.at_timeout')}, "
              f"restarts {counters.counter_value('failover.restarts')})")
    else:
        print(f"shrink runs : {counters.counter_value('fuzz.shrink_steps')}")
    if report.ok:
        if faults:
            print("result      : conservation held for every fault case")
        else:
            print("result      : all cases agree across the three planes")
        return 0
    print(f"result      : {len(report.failures)} failing case(s)")
    for failure in report.failures:
        print(f"  case {failure.index}: {failure.outcome.kind} "
              f"-- {failure.outcome.detail}")
        if failure.shrunk is not None:
            chain = [kind for _, kind in failure.shrunk.case.instances]
            print(f"    minimized to {len(chain)} NF(s) {chain}, "
                  f"{failure.shrunk.packets} packet(s)")
        if failure.test_path:
            print(f"    repro: {failure.json_path}  {failure.test_path}")
    return 1


def cmd_profile_audit(args) -> int:
    """Infer NF footprints from traced execution; diff against the table."""
    from .profiles import audit_catalog

    report = audit_catalog(
        kinds=args.nf or None,
        cases=args.cases,
        seed=args.seed,
        packets_per_case=args.packets,
    )
    print(render_table(
        ["kind", "packets", "inferred", "declared", "hard", "info"],
        [[row["kind"], row["packets"], row["inferred"], row["declared"],
          row["hard"], row["info"]] for row in report.rows()],
    ))
    print(f"\ncases   : {report.cases} ({report.packets} packets)")
    print(f"kinds   : {len(report.inferred)} audited")
    hard = report.hard
    info = [f for f in report.findings if not f.hard]
    if args.verbose and info:
        print("\ninfo findings (declared but never observed):")
        for finding in info:
            print(f"  {finding.kind}: {finding.message}")
    if not hard:
        print("result  : every observed access is covered by its "
              "declared profile")
        return 0
    print(f"result  : {len(hard)} hard finding(s) -- declared profiles "
          "under-approximate the observed footprint:")
    for finding in hard:
        print(f"  {finding.kind}: {finding.message}")
    return 1


def cmd_bench(args) -> int:
    """Run the benchmark scenario registry, or diff two reports."""
    from .bench import (
        BenchReport,
        REGISTRY,
        compare_reports,
        run_bench,
        summary_table,
    )

    if args.compare:
        old_path, new_path = args.compare
        try:
            old = BenchReport.load(old_path)
            new = BenchReport.load(new_path)
            comparison = compare_reports(old, new)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"bench compare failed: {exc}")
        print(f"old: {old_path} ({len(old.scenarios)} scenarios)")
        print(f"new: {new_path} ({len(new.scenarios)} scenarios)\n")
        print(comparison.render())
        return comparison.exit_code

    if args.list:
        for spec in REGISTRY.values():
            print(f"{spec.name:<28s} {spec.description}")
        return 0

    names = [n.strip() for n in args.only.split(",") if n.strip()] \
        if args.only else None
    try:
        report = run_bench(names=names, log=lambda line: print(f"  {line}"))
    except KeyError as exc:
        raise SystemExit(str(exc))
    print()
    print(summary_table(report))
    if args.out:
        report.save(args.out)
        print(f"\nreport: {args.out} ({len(report.scenarios)} scenarios, "
              f"schema {report.schema})")
    return 0


def cmd_place(args) -> int:
    """Place chains onto a topology under SLOs; print plan + utilisation."""
    from .placement import Topology, Slo, round_robin_place

    topo = Topology.from_spec(args.topology)
    orch = Orchestrator()
    requests = []
    for chunk in args.chains.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, rest = chunk.partition("=")
        if not sep:
            raise SystemExit(
                f"chain {chunk!r} must look like name=nf1,nf2,... "
                f"(optionally @<max_delay_us>)"
            )
        delay = args.max_delay_us
        if "@" in rest:
            rest, _, override = rest.partition("@")
            delay = float(override)
        chain = [part.strip() for part in rest.split(",") if part.strip()]
        requests.append(orch.request(
            name.strip(), Policy.from_chain(chain),
            Slo(max_delay_us=delay, max_mpps=args.max_mpps),
        ))
    if not requests:
        raise SystemExit("--chains is empty")

    solvers = (["heuristic", "brute"] if args.solver == "both"
               else [args.solver])
    exit_code = 0
    for solver in solvers:
        if solver == "round-robin":
            plan = round_robin_place(topo, requests)
        else:
            plan = orch.place(topo, requests, solver=solver,
                              backups=not args.no_backup)
        print(plan.describe())
        print("\nserver utilisation:")
        print(render_table(
            ["server", "cores", "used", "util %", "mem MB used"],
            [(name, topo.server(name).cores,
              plan.ledger.cores_used[name], f"{util * 100:.0f}",
              f"{plan.ledger.memory_used[name]:.0f}")
             for name, util in sorted(plan.ledger.server_utilisation().items())],
        ))
        busy = {
            name: util
            for name, util in plan.ledger.link_utilisation().items()
            if util > 0
        }
        if busy:
            print("\nlink utilisation (loaded links):")
            print(render_table(
                ["link", "util %"],
                [(name, f"{util * 100:.1f}")
                 for name, util in sorted(busy.items())],
            ))
        if args.measure and plan.placements:
            from .eval.harness import measure_placed
            from .telemetry import TelemetryHub, multiserver_summary_table

            hub = TelemetryHub()
            rows = []
            for placement in plan.placements:
                result = measure_placed(placement, packets=args.packets,
                                        telemetry=hub, topology=topo)
                slo = placement.request.slo
                rows.append([
                    placement.request.name, "->".join(placement.path),
                    f"{result.latency_p99_us:.1f}", f"{slo.max_delay_us:.1f}",
                    "yes" if result.latency_p99_us <= slo.max_delay_us
                    else "NO",
                ])
            print("\nDES validation (measured at committed rate):")
            print(render_table(
                ["chain", "path", "p99 us", "slo us", "meets slo"], rows))
            summary = multiserver_summary_table(hub.registry)
            if summary:
                print("\nserver/link telemetry:")
                print(summary)
        if not plan.feasible:
            exit_code = 1
        print()
    return exit_code


def cmd_pairs(args) -> int:
    stats = compute_pair_statistics()
    names = sorted({a for a, _ in stats.per_pair})
    symbol = {
        Parallelism.NO_COPY: ".",
        Parallelism.WITH_COPY: "c",
        Parallelism.NOT_PARALLELIZABLE: "X",
    }
    width = max(len(n) for n in names)
    print(" " * (width + 1) + " ".join(n[:2] for n in names))
    for first in names:
        cells = " ".join(
            symbol[stats.per_pair[(first, second)]] + " " for second in names
        )
        print(f"{first:>{width}s} {cells}")
    print("\n(. = no copy, c = with copy, X = not parallelizable; "
          "row runs before column)\n")
    print(render_table(["outcome", "measured %", "paper %"], stats.as_rows()))
    return 0


def cmd_replay(args) -> int:
    """Replay a pcap trace through a compiled graph, write the output."""
    from .dataplane import FunctionalDataplane
    from .net import read_pcap, write_pcap

    orch = Orchestrator()
    policy = _load_policy(args)
    graph = orch.compile(policy).graph
    plane = FunctionalDataplane(graph)
    records = read_pcap(args.input)
    outputs = []
    for timestamp, pkt in records:
        try:
            out = plane.process(pkt)
        except ValueError as exc:
            print(f"skipping unparsable packet at {timestamp:.0f}us: {exc}",
                  file=sys.stderr)
            continue
        if out is not None:
            out.ingress_us = timestamp
            outputs.append(out)
    written = write_pcap(args.output, outputs) if args.output else 0
    print(f"graph   : {graph.describe()}")
    print(f"input   : {len(records)} packets")
    print(f"emitted : {plane.emitted}, dropped: {plane.dropped}")
    if args.output:
        print(f"output  : {written} packets -> {args.output}")
    return 0


def cmd_breakdown(args) -> int:
    """Per-segment latency attribution for a compiled graph."""
    from .eval import latency_breakdown

    policy = _load_policy(args)
    graph = Orchestrator().compile(policy).graph
    breakdown = latency_breakdown(graph, packets=args.packets)
    print(f"graph : {graph.describe()}")
    print(f"total : {breakdown.total_us:.1f} us "
          f"(over {breakdown.packets} packets)\n")
    print(render_table(
        ["segment", "mean us", "share %"],
        [(name, f"{value:.1f}", f"{share:.1f}")
         for name, value, share in breakdown.rows()],
    ))
    return 0


def cmd_sweep(args) -> int:
    series = {"sequential": [], "parallel": []}
    if args.kind == "cycles":
        points = (1, 600, 1200, 1800, 2400, 3000)
        for cycles in points:
            seq = measure_nfp(forced_sequential(["firewall"] * 2),
                              packets=args.packets, extra_cycles=cycles)
            par = measure_nfp(forced_parallel(["firewall"] * 2, with_copy=False),
                              packets=args.packets, extra_cycles=cycles)
            series["sequential"].append((cycles, seq.latency_mean_us))
            series["parallel"].append((cycles, par.latency_mean_us))
        x_label = "busy cycles per packet"
    else:
        for degree in (2, 3, 4, 5):
            seq = measure_nfp(forced_sequential(["firewall"] * degree),
                              packets=args.packets, extra_cycles=300)
            par = measure_nfp(forced_parallel(["firewall"] * degree,
                                              with_copy=False),
                              packets=args.packets, extra_cycles=300)
            series["sequential"].append((degree, seq.latency_mean_us))
            series["parallel"].append((degree, par.latency_mean_us))
        x_label = "parallelism degree"
    print(ascii_plot(series, title=f"latency vs {x_label}",
                     x_label=x_label, y_label="us"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a policy")
    p_compile.add_argument("--policy", help="policy DSL file")
    p_compile.add_argument("--chain", help="comma-separated NF kinds")
    p_compile.add_argument("-v", "--verbose", action="store_true")
    p_compile.set_defaults(func=cmd_compile)

    p_measure = sub.add_parser("measure", help="measure a chain")
    p_measure.add_argument("--chain", required=True)
    p_measure.add_argument("--systems", default="nfp,onvm,bess")
    p_measure.add_argument("--packets", type=int, default=2000)
    p_measure.add_argument("--telemetry", action="store_true",
                           help="collect and print per-NF metrics (NFP runs)")
    p_measure.add_argument("--instances", type=int, default=1,
                           help="replicate every NF this many times with RSS "
                                "flow-split (§7 scale-out; NFP runs only)")
    p_measure.add_argument("--json", action="store_true",
                           help="dump results as JSON instead of a table")
    p_measure.add_argument("--timeseries", action="store_true",
                           help="arm a windowed sampler on the first NFP run "
                                "and print per-window sparklines (implies "
                                "telemetry collection)")
    p_measure.set_defaults(func=cmd_measure)

    p_monitor = sub.add_parser(
        "monitor", help="run a chain with live windowed telemetry, watch "
                        "rules and alerts")
    p_monitor.add_argument("--policy", help="policy DSL file")
    p_monitor.add_argument("--chain", help="comma-separated NF kinds")
    p_monitor.add_argument("--packets", type=int, default=2000)
    p_monitor.add_argument("--window-us", type=float, default=100.0,
                           help="sampling window in sim microseconds "
                                "(default 100)")
    p_monitor.add_argument("--watch", action="append", metavar="RULE",
                           help="watch rule, e.g. 'ring.occupancy > 0.8 for "
                                "3 windows' or 'p99_us > slo'; repeatable "
                                "(default: ring occupancy + AT timeouts)")
    p_monitor.add_argument("--slo-us", type=float, default=None,
                           help="latency SLO resolving the 'slo' threshold "
                                "(adds a p99_us > slo rule)")
    p_monitor.add_argument("--instances", type=int, default=1,
                           help="replicate every NF this many times")
    p_monitor.add_argument("--faults", metavar="SPEC",
                           help="fault plan to inject, e.g. "
                                "'ring:ids:cap=2:pkt=100'")
    p_monitor.add_argument("--prom", metavar="FILE",
                           help="write a Prometheus text exposition of the "
                                "final registry")
    p_monitor.add_argument("--json", action="store_true",
                           help="print a structured JSON summary instead of "
                                "the dashboard (suppresses live alerts)")
    p_monitor.set_defaults(func=cmd_monitor)

    p_autoscale = sub.add_parser(
        "autoscale", help="drive a time-varying load against an elastic "
                          "chain: watch rules rescale one NF live")
    p_autoscale.add_argument("--policy", help="policy DSL file")
    p_autoscale.add_argument("--chain", default="nat,vpn",
                             help="comma-separated NF kinds "
                                  "(default nat,vpn)")
    p_autoscale.add_argument("--nf", default="vpn",
                             help="the NF the policy scales (default vpn)")
    p_autoscale.add_argument("--min-instances", type=int, default=1)
    p_autoscale.add_argument("--max-instances", type=int, default=4)
    p_autoscale.add_argument("--up-rule",
                             default="ring.occupancy > 0.25 for 2 windows",
                             help="watch rule that triggers scale-up")
    p_autoscale.add_argument("--down-rule",
                             default="ring.occupancy < 0.05 for 6 windows",
                             help="watch rule that triggers scale-down")
    p_autoscale.add_argument("--cooldown-us", type=float, default=None,
                             help="gap between decisions "
                                  "(default 3 windows)")
    p_autoscale.add_argument("--shape", default="flash",
                             choices=["flash", "diurnal", "bursts",
                                      "constant"],
                             help="offered-load shape (default flash)")
    p_autoscale.add_argument("--base-mpps", type=float, default=0.8)
    p_autoscale.add_argument("--peak-mpps", type=float, default=3.5)
    p_autoscale.add_argument("--packets", type=int, default=3000)
    p_autoscale.add_argument("--num-flows", type=int, default=256)
    p_autoscale.add_argument("--popularity", default="zipf",
                             choices=["uniform", "zipf"],
                             help="flow popularity mix (default zipf)")
    p_autoscale.add_argument("--window-us", type=float, default=None,
                             help="sampling window (default: horizon/100)")
    p_autoscale.add_argument("--seed", type=int, default=1)
    p_autoscale.add_argument("--json", action="store_true",
                             help="structured JSON summary instead of the "
                                  "dashboard")
    p_autoscale.set_defaults(func=cmd_autoscale)

    p_bench = sub.add_parser(
        "bench", help="run the model-clock scenarios / diff two reports")
    p_bench.add_argument("--only", metavar="A,B,...",
                         help="run only the named scenarios")
    p_bench.add_argument("--out", help="write the report here "
                         "(benchmarks/results/baseline.json re-pins)")
    p_bench.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                         help="diff two reports with ==; exit 1 on any "
                              "difference")
    p_bench.add_argument("--list", action="store_true",
                         help="list registered scenarios")
    p_bench.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser("trace",
                             help="trace packet lifecycles through a chain")
    p_trace.add_argument("--policy", help="policy DSL file")
    p_trace.add_argument("--chain", help="comma-separated NF kinds")
    p_trace.add_argument("--packets", type=int, default=500)
    p_trace.add_argument("--out", default="nfp-trace.json",
                         help="Chrome trace_event output file")
    p_trace.add_argument("--jsonl", help="also dump raw span events as JSONL")
    p_trace.add_argument("--max-events", type=int, default=None,
                         help="cap stored span events (default: unbounded)")
    p_trace.set_defaults(func=cmd_trace)

    p_place = sub.add_parser(
        "place", help="place chains onto a topology under SLOs")
    p_place.add_argument("--topology", required=True, metavar="SPEC",
                         help="mesh:4x8 | line:3x6@25 | star:5x8@40 "
                              "(<shape>:<servers>x<cores>[@<gbps>])")
    p_place.add_argument("--chains", required=True, metavar="SPECS",
                         help="semicolon-separated name=nf1,nf2,... chains; "
                              "append @<us> to override --max-delay-us "
                              "per chain")
    p_place.add_argument("--max-delay-us", type=float, default=100.0,
                         help="end-to-end delay SLO per chain (default 100)")
    p_place.add_argument("--max-mpps", type=float, default=1.0,
                         help="committed worst-case rate per chain "
                              "(default 1.0)")
    p_place.add_argument("--solver", default="heuristic",
                         choices=["heuristic", "brute", "round-robin", "both"],
                         help="placement solver; 'both' runs heuristic then "
                              "brute for comparison")
    p_place.add_argument("--no-backup", action="store_true",
                         help="skip reserving disjoint backup placements")
    p_place.add_argument("--measure", action="store_true",
                         help="DES-validate each placement at its committed "
                              "rate and print server/link telemetry")
    p_place.add_argument("--packets", type=int, default=2000,
                         help="packets per DES validation run (default 2000)")
    p_place.set_defaults(func=cmd_place)

    p_pairs = sub.add_parser("pairs", help="§4.3 parallelizability matrix")
    p_pairs.set_defaults(func=cmd_pairs)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing (sequential vs parallel)")
    p_fuzz.add_argument("--cases", type=int, default=500,
                        help="case budget (default 500)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")
    p_fuzz.add_argument("--max-seconds", type=float, default=None,
                        help="wall-clock budget; stops early when exceeded")
    p_fuzz.add_argument("--packets", type=int, default=16,
                        help="packets per case (default 16)")
    p_fuzz.add_argument("--max-nfs", type=int, default=5,
                        help="max NF instances per policy (default 5)")
    p_fuzz.add_argument("--no-des", action="store_true",
                        help="skip the timed DES plane (faster)")
    p_fuzz.add_argument("--instances", type=int, default=1,
                        help="replicate every NF this many times (§7 "
                             "scale-out axis; sequential oracle becomes a "
                             "bank of per-instance chains)")
    p_fuzz.add_argument("--inject-bug", action="append", metavar="SPEC",
                        help="perturb a profile, e.g. "
                             "hidden-write:loadbalancer:DIP, "
                             "read-only:firewall, no-drop:ips (repeatable)")
    p_fuzz.add_argument("--faults", metavar="KINDS", default="",
                        help="fault-mode fuzzing: comma-separated fault kinds "
                             "(crash,hang,slow,ring) injected one per case; "
                             "the oracle becomes the packet-conservation "
                             "invariant on the DES plane")
    p_fuzz.add_argument("--replay", metavar="DIR",
                        help="replay a corpus directory instead of fuzzing")
    p_fuzz.add_argument("--out-dir", default="fuzz-artifacts",
                        help="where shrunk repros are written")
    p_fuzz.add_argument("--stop-after", type=int, default=3,
                        help="stop after this many failures (default 3)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    p_fuzz.add_argument("--audit-profiles", action="store_true",
                        help="arm the profile oracle: record every NF field "
                             "access on the sequential plane and fail the "
                             "case on undeclared reads/writes/adds/removes/"
                             "drops (incompatible with --faults)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_audit = sub.add_parser(
        "profile-audit",
        help="infer NF action profiles from traced execution and diff "
             "against the declared table")
    p_audit.add_argument("--cases", type=int, default=200,
                         help="generated traffic cases (default 200)")
    p_audit.add_argument("--seed", type=int, default=0,
                         help="traffic generator seed (default 0)")
    p_audit.add_argument("--packets", type=int, default=8,
                         help="packets per case (default 8)")
    p_audit.add_argument("--nf", action="append", metavar="KIND",
                         help="audit an explicit chain of kinds in order "
                              "(repeatable); default: every catalog NF via "
                              "generated policies")
    p_audit.add_argument("-v", "--verbose", action="store_true",
                         help="also print info findings (declared-but-"
                              "unobserved actions)")
    p_audit.set_defaults(func=cmd_profile_audit)

    p_replay = sub.add_parser("replay", help="replay a pcap through a graph")
    p_replay.add_argument("--policy", help="policy DSL file")
    p_replay.add_argument("--chain", help="comma-separated NF kinds")
    p_replay.add_argument("--input", required=True, help="input pcap")
    p_replay.add_argument("--output", help="output pcap")
    p_replay.set_defaults(func=cmd_replay)

    p_breakdown = sub.add_parser("breakdown",
                                 help="latency attribution per segment")
    p_breakdown.add_argument("--policy", help="policy DSL file")
    p_breakdown.add_argument("--chain", help="comma-separated NF kinds")
    p_breakdown.add_argument("--packets", type=int, default=1200)
    p_breakdown.set_defaults(func=cmd_breakdown)

    p_sweep = sub.add_parser("sweep", help="plot a latency sweep")
    p_sweep.add_argument("kind", choices=["cycles", "degree"])
    p_sweep.add_argument("--packets", type=int, default=1500)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
