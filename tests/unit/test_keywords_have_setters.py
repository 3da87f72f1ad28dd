"""Every defaulted parameter in ``src/repro`` has a caller that sets it.

A census built like ``test_public_names_have_callers.py``, one level
down: a parameter with a default, of any ``def`` under ``src/repro``,
fails when no call in ``src/``, ``examples/`` or ``benchmarks/lab/``
sets it.  A call sets a parameter when it names it as a keyword, passes
it by position, or spreads ``*args`` / ``**kwargs``.  Calls are matched
by identifier, not by type: ``x.run(seed=3)`` sets ``seed`` of every
``def run`` that has one, and ``Cls(...)`` (or ``super().__init__(...)``
in a subclass, or ``cls(...)`` in its classmethods) reaches
``Cls.__init__``.  So the census finds only
values nothing can set, never a wrong call.  A default nothing sets is
a constant under another name: fold it into the body.

Two structural exemptions need no entry: a function whose identifier is
referenced other than as the callee of a call (a callback handed to
``call_later``, a table of constructors, a ``getattr`` string), because
whoever receives it may set its parameters; and the constructor of an
NF class registered with ``@register_nf_class``, whose parameters are
deployment settings reached through ``create_nf``.  Every other
exemption is listed in :data:`ALLOWED` with its reason; an entry whose
parameter is gone or has gained a setter fails too, so the list cannot
go stale.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CALLER_ROOTS = (SRC, ROOT / "examples", ROOT / "benchmarks" / "lab")

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

_FLOW_MATCH = "a FlowMatch field: the traffic class an operator deploys a graph for"
_FRAME = ("a header field of the frame builder; the header, NF and packet "
          "property tests build frames with it")
_ACL = ("an ACL rule field an operator writes; "
        "test_firewall_index_differential.py draws rules over it")
_BURSTS_OF_ONE = ("test_end_to_end_server.py::"
                  "test_every_server_delivers_everything_in_bursts_of_one "
                  "runs each harness at batch_size 1")
_SIGNATURE = ("a Snort-style rule field an operator writes; the IDS "
              "constraint tests in test_nfs.py match on it")

#: Defaulted parameters kept without a setter, each with its reason.
ALLOWED = {
    # Operator API: the fields of what an operator writes or reads.
    "repro.core.match.FlowMatch.__init__:src_prefix": _FLOW_MATCH,
    "repro.core.match.FlowMatch.__init__:dst_prefix": _FLOW_MATCH,
    "repro.core.match.FlowMatch.__init__:protocol": _FLOW_MATCH,
    "repro.core.match.FlowMatch.__init__:sport_range": _FLOW_MATCH,
    "repro.core.match.FlowMatch.__init__:dport_range": _FLOW_MATCH,
    "repro.core.match.FlowMatch.__init__:name": _FLOW_MATCH,
    "repro.core.orchestrator.Orchestrator.deploy:match":
        "the FlowMatch a deployment serves: how graphs share one server",
    "repro.core.orchestrator.Orchestrator.register_nf:name":
        "the kind name a policy uses for an NF onboarded by inspection (§5.4)",
    "repro.net.packet.build_packet:src_mac": _FRAME,
    "repro.net.packet.build_packet:dst_mac": _FRAME,
    "repro.net.packet.build_packet:ttl": _FRAME,
    "repro.nfs.firewall.AclRule.__init__:dst_prefix": _ACL,
    "repro.nfs.firewall.AclRule.__init__:sport_range": _ACL,
    "repro.nfs.ids.Signature.__init__:msg": _SIGNATURE,
    "repro.nfs.ids.Signature.__init__:protocol": _SIGNATURE,
    "repro.nfs.ids.Signature.__init__:dport": _SIGNATURE,
    "repro.nfs.ids.Signature.__init__:sport": _SIGNATURE,
    "repro.telemetry.prometheus.write_prometheus:prefix":
        "the metric-name namespace an operator's Prometheus scrapes",
    # Test references: an oracle that needs the non-default value.
    "repro.eval.harness.measure_onvm:params": _BURSTS_OF_ONE,
    "repro.eval.harness.measure_bess:params": _BURSTS_OF_ONE,
    "repro.eval.correctness.replay_chain:sizes":
        "test_replay_correctness.py replays §6.4 over the data-center mix",
    "repro.eval.overhead.expected_overhead:sizes":
        "test_eval_modular.py::test_theoretical_overhead_equation checks "
        "§6.3.1's ro = 64 (d - 1) / s at single packet sizes",
    "repro.nfs.monitor.Monitor.top_flows:n":
        "test_flow_bytes_differential.py reads every flow against its oracle",
    "repro.profiles.harness.audit_catalog:table":
        "test_profiles_infer_audit.py::"
        "test_audit_catalog_catches_a_narrowed_declaration audits against "
        "a narrowed table, the audit's negative fixture",
    "repro.telemetry.timeseries.Sampler.__init__:capacity":
        "test_timeseries_properties.py evicts windows at capacities 1-8; "
        "at 512 its streams never evict",
    "repro.traffic.generator.TrafficSource.__init__:poisson":
        "test_fault_recovery.py and test_failure_injection.py time their "
        "faults against a constant-rate source",
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _decorated(node: ast.AST, name: str) -> bool:
    return any((isinstance(d, ast.Name) and d.id == name)
               or (isinstance(d, ast.Attribute) and d.attr == name)
               for d in node.decorator_list)


def _base_names(cls: ast.ClassDef):
    for base in cls.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def _defaulted(func: ast.AST, bound: bool):
    """(name, position or None) of each defaulted parameter; a
    position counts from the first argument a call passes."""
    positional = func.args.posonlyargs + func.args.args
    skip = 1 if bound and positional else 0
    first = len(positional) - len(func.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first:
            yield arg.arg, i - skip
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _definitions():
    """(qualified name, call identifiers, defaulted parameters, exempt)
    for every ``def`` under ``src/repro``, nested ones included."""
    classes, found = {}, []

    def walk(node, prefix, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                classes.setdefault(sub.name, sub)
                walk(sub, f"{prefix}.{sub.name}", sub)
            elif isinstance(sub, _FUNCS):
                found.append((f"{prefix}.{sub.name}", sub, owner))
                walk(sub, f"{prefix}.{sub.name}", None)
            else:
                walk(sub, prefix, owner)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), _module_name(path), None)

    def inherits(name, base, seen=()):
        cls = classes.get(name)
        if cls is None or name in seen:
            return False
        return any(b == base or inherits(b, base, seen + (name,))
                   for b in _base_names(cls))

    for qualname, func, owner in found:
        bound = owner is not None and not _decorated(func, "staticmethod")
        params = list(_defaulted(func, bound))
        if not params:
            continue
        callers = {func.name}
        exempt = False
        if owner is not None and func.name == "__init__":
            # A constructor is called by its class's name, by a
            # subclass's name, or through super().__init__ in one.
            callers = {owner.name} | {n for n in classes
                                      if inherits(n, owner.name)}
            exempt = _decorated(owner, "register_nf_class")
        yield qualname, callers, params, exempt


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _typing_nodes(tree: ast.AST):
    """ids of the nodes that name a type without using it as a value:
    annotations, class bases, ``isinstance`` / ``issubclass`` classes
    and ``except`` clauses."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
        elif isinstance(node, _FUNCS):
            roots.append(node.returns)
        elif isinstance(node, ast.ClassDef):
            roots.extend(node.bases)
        elif isinstance(node, ast.ExceptHandler):
            roots.append(node.type)
        elif (isinstance(node, ast.Call) and len(node.args) == 2
              and _callee(node) in ("isinstance", "issubclass")):
            roots.append(node.args[1])
    return {id(sub) for root in roots if root is not None
            for sub in ast.walk(root)}


def _references(tree: ast.AST, callees: set):
    """Names and attributes read as values other than as a callee or
    as the object of an attribute access (``Cls.method``)."""
    skip = _typing_nodes(tree) | callees
    skip.update(id(node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute))
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load) and id(node) not in skip):
            yield node


def _scan():
    """Per identifier: the keywords its calls name, the most positional
    arguments one passes, whether one spreads ``*`` or ``**``, and the
    identifiers referenced other than as a callee."""
    keywords, positions, spread, referenced = {}, {}, set(), set()
    for root in CALLER_ROOTS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            callees = set()
            classes = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for sub in ast.walk(node):
                        classes[id(sub)] = node
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callees.add(id(node.func))
                name = _callee(node)
                if name is None:
                    continue
                if (name == "__init__" and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Call)
                        and _callee(node.func.value) == "super"
                        and id(node) in classes):
                    # super().__init__(...) calls the first base's.
                    names = list(_base_names(classes[id(node)]))[:1]
                elif name == "cls" and id(node) in classes:
                    # cls(...) in a classmethod calls its own class.
                    names = [classes[id(node)].name]
                else:
                    names = [name]
                spreads = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(kw.arg is None for kw in node.keywords))
                for name in names:
                    positions[name] = max(positions.get(name, 0), len(node.args))
                    keywords.setdefault(name, set()).update(
                        kw.arg for kw in node.keywords if kw.arg is not None)
                    if spreads:
                        spread.add(name)
            for node in _references(tree, callees):
                referenced.add(node.id if isinstance(node, ast.Name)
                               else node.attr)
    return keywords, positions, spread, referenced


@functools.lru_cache(maxsize=None)
def _census():
    """``qualified.name:parameter`` -> True when nothing sets it;
    structurally exempt parameters are left out."""
    keywords, positions, spread, referenced = _scan()
    census = {}
    for qualname, callers, params, exempt in _definitions():
        if exempt or callers & referenced:
            continue
        for param, position in params:
            is_set = any(
                c in spread
                or param in keywords.get(c, ())
                or (position is not None and position < positions.get(c, 0))
                for c in callers)
            census[f"{qualname}:{param}"] = not is_set
    return census


def test_every_defaulted_parameter_has_a_setter_outside_the_tests():
    unset = sorted(p for p, never in _census().items()
                   if never and p not in ALLOWED)
    assert unset == [], (
        "defaulted parameters no call in src/, examples/ or "
        "benchmarks/lab/ sets (make each default a constant, or list "
        f"it in ALLOWED with a reason): {unset}"
    )


def test_allow_list_is_current():
    census = _census()
    missing = sorted(p for p in ALLOWED if p not in census)
    set_now = sorted(p for p in ALLOWED if p in census and not census[p])
    assert missing == [], f"ALLOWED parameters with no definition: {missing}"
    assert set_now == [], f"ALLOWED parameters that have a setter now: {set_now}"
    assert all(reason.strip() for reason in ALLOWED.values())
