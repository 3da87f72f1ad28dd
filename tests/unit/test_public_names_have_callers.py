"""Every public name in ``src/repro`` has a caller outside the tests.

A census in the spirit of ``test_sim_params_fields.py``: a public
top-level function or class, or a public method of such a class, fails
when its identifier appears nowhere in ``src/``, ``examples/`` or
``benchmarks/lab/`` outside its own definition and its re-exports
(``from ... import`` lines and ``__all__`` entries).  The lab's stubs
therefore count as callers.  The match is by identifier, not by type,
so it finds only names nothing can reach, never a wrong call.

Two structural exemptions need no entry: an NF class registered with
``@register_nf_class`` (reached by its kind string through the
registry) and an ``ast.NodeVisitor`` ``visit_*`` method (reached by
name through ``NodeVisitor.visit``).  Every other exemption is listed
in :data:`ALLOWED` with its reason; an entry whose name gained a caller
or lost its definition fails too, so the list cannot go stale.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CALLER_ROOTS = (SRC, ROOT / "examples", ROOT / "benchmarks" / "lab")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Public names kept without a non-test caller, each with its reason.
ALLOWED = {
    # Package API: one-shot entry points and the DSL's inverse.
    "repro.core.compiler.compile_policy":
        "one-shot compile, the package API's shortest path (docs/API.md)",
    "repro.core.policy_dsl.format_policy":
        "inverse of parse_policy; the DSL round-trip property holds both",
    "repro.nfs.base.registered_kinds":
        "lists the NF registry for operators (docs/API.md)",
    "repro.telemetry.export.events_from_jsonl":
        "reader of the JSONL trace export; the round-trip test holds both",
    "repro.telemetry.export.events_from_chrome_trace":
        "reader of the Chrome trace export; the round-trip test holds both",
    # Test references: readers a test checks against an oracle.
    "repro.net.crypto.Aes128":
        "single-block AES object the FIPS-197 vectors check",
    "repro.net.crypto.Aes128.encrypt_block":
        "the FIPS-197 single-block test reference",
    "repro.net.headers.Ipv4View.verify_checksum":
        "checksum oracle the header and NF tests assert with",
    "repro.net.headers.Ipv4View.fragment_offset":
        "IPv4 field setter the fragment tests build frames with",
    "repro.net.headers.Ipv4View.more_fragments":
        "IPv4 field setter the fragment tests build frames with",
    "repro.net.headers.TcpView.data_offset":
        "TCP header field reader the header tests check",
    "repro.net.headers.TcpView.ack":
        "TCP header field the header tests read and write",
    "repro.net.headers.AhView.payload_len":
        "AH header field the AH layout test checks",
    "repro.net.packet.Packet.payload_offset":
        "payload offset the packet tests check against the layout",
    "repro.net.encap.vlan_tci":
        "802.1Q tag reader the L2 NF tests assert with",
    "repro.net.encap.vxlan_vni":
        "VXLAN VNI reader the tunnel NF tests assert with",
    "repro.eval.experiments.ExperimentTable.column":
        "the paper-claim tests read pinned tables through it",
    "repro.eval.load_sweep.LoadPoint.saturated":
        "the paper-claim tests check the knee through it",
    "repro.core.scaling.ScalePlan.merger_count":
        "the scale-plan test sizes the server's merger pool with it",
    "repro.faults.recovery.HealthBoard.registered":
        "the fault-model tests check group registration through it",
    "repro.telemetry.hooks.TelemetryHub.tracing":
        "the telemetry tests check tracer attachment through it",
    "repro.telemetry.timeseries.TimeSeries.merged_histogram":
        "the sampler tests fold windows through it",
    "repro.nfs.misc.TrafficShaper.advance_time":
        "the shaper tests move its token clock through it",
    # NF state readers: the bound readers of the NF tests' ledgers.
    "repro.nfs.conntrack.ConnTrackFirewall.connection_count":
        "conntrack state reader the NF tests assert with",
    "repro.nfs.conntrack.ConnTrackFirewall.state_of":
        "conntrack state reader the NF tests assert with",
    "repro.nfs.loadbalancer.LoadBalancer.pick_backend":
        "read by the flow-bytes differential",
    "repro.nfs.monitor.Monitor.stats_for":
        "read by the flow-bytes differential",
    "repro.nfs.monitor.Monitor.top_flows":
        "read by the flow-bytes differential",
    "repro.nfs.misc.Caching.observed_hit_ratio":
        "cache state reader the NF tests assert with",
    "repro.nfs.misc.Gateway.pair_count":
        "gateway state reader the NF tests assert with",
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _identifiers(tree: ast.AST) -> collections.Counter:
    """Every identifier a tree refers to: names, attributes and
    identifier-shaped strings (``getattr`` dispatch, registry keys),
    minus the ``__all__`` entries, which are re-exports."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found[node.value] += 1
    for node in getattr(tree, "body", ()):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant):
                    found[elt.value] -= 1
    return found


def _exempt(node: ast.AST, owner: ast.ClassDef = None) -> bool:
    if isinstance(node, ast.ClassDef):
        return any(isinstance(d, ast.Name) and d.id == "register_nf_class"
                   for d in node.decorator_list)
    return (owner is not None and node.name.startswith("visit_")
            and any(isinstance(b, ast.Attribute) and b.attr == "NodeVisitor"
                    for b in owner.bases))


def _public_definitions():
    """(qualified name, identifier, definition node) for each public
    top-level def/class and each public method of such a class, less
    the structural exemptions."""
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if not _exempt(node):
                yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, _DEFS) and not sub.name.startswith("_")
                            and not _exempt(sub, node)):
                        yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def _census():
    """Qualified name -> True when nothing outside the tests calls it."""
    uses = collections.Counter()
    for root in CALLER_ROOTS:
        for path in root.rglob("*.py"):
            uses.update(_identifiers(ast.parse(path.read_text())))
    # Uses inside a name's own definitions (recursion, a property's
    # ``@name.setter``) do not count.
    names, own = {}, collections.Counter()
    for qualname, name, node in _public_definitions():
        names[qualname] = name
        own[qualname] += _identifiers(node)[name]
    return {q: uses[name] - own[q] <= 0 for q, name in names.items()}


def test_every_public_name_has_a_caller_outside_the_tests():
    dead = sorted(q for q, callerless in _census().items()
                  if callerless and q not in ALLOWED)
    assert dead == [], (
        "public names nothing in src/, examples/ or benchmarks/lab/ "
        f"calls (delete them, or list them in ALLOWED with a reason): {dead}"
    )


def test_allow_list_is_current():
    census = _census()
    missing = sorted(q for q in ALLOWED if q not in census)
    called = sorted(q for q in ALLOWED if q in census and not census[q])
    assert missing == [], f"ALLOWED names with no definition: {missing}"
    assert called == [], f"ALLOWED names that have a caller now: {called}"
    assert all(reason.strip() for reason in ALLOWED.values())
