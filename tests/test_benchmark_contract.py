"""What the benchmark harness in perfbench/ relies on in cornerlab.

The traced run wraps every (module, attribute) pair that
perfbench/tracing.py lists, the workloads and the selftest call cornerlab
through module attributes, and the gate-branches workload counts the
top-level protocol runs of an enumeration by replacing the module attribute
`protocols.run_protocol`.  A rename or a changed call path breaks those
runs without failing any other test, so all three are checked here.  The
perfbench files are loaded by path or parsed, and only read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cornerlab import protocols

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    tracing = _tracing()
    pairs = [pair for layer in tracing.LAYERS.values() for pair in layer]
    assert set(tracing.COUNTED) <= set(pairs)
    for mod_name, attr in pairs:
        owner = importlib.import_module(f"cornerlab.{mod_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"cornerlab.{mod_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"cornerlab.{mod_name}.{attr}"


def test_benchmark_names_resolve():
    # every <module>.<name> chain that the workloads and the selftest read
    # off a module imported with `from cornerlab import <module>`
    for script in ("workloads.py", "selftest.py"):
        tree = ast.parse((PERFBENCH / script).read_text())
        modules = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "cornerlab"
                   for alias in node.names}
        chains = set()
        for node in ast.walk(tree):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id in modules:
                chains.add((modules[node.id], *parts))
        assert chains, script
        for mod_name, *attrs in chains:
            owner = importlib.import_module(f"cornerlab.{mod_name}")
            for part in attrs:
                assert hasattr(owner, part), \
                    f"{script}: cornerlab.{mod_name}.{'.'.join(attrs)}"
                owner = getattr(owner, part)


@pytest.mark.parametrize("mode", ["classical", "measured"])
def test_enumeration_runs_through_module_attribute(monkeypatch, mode):
    records = []
    inner = protocols.run_protocol

    def run_protocol(protocol, state, *args, **kwargs):
        run = inner(protocol, state, *args, **kwargs)
        records.append(protocol)
        return run

    monkeypatch.setattr(protocols, "run_protocol", run_protocol)
    for pid in protocols.PROTOCOL_IDS:
        rng = np.random.default_rng(3)
        inputs = protocols.random_logical_inputs(pid, 2, rng)
        report = protocols.enumerate_branches(pid, inputs,
                                              correction_mode=mode, rng=rng)
        # one top-level run per reachable (branch, input) pair, and no
        # nested run goes through the module attribute
        assert records == [pid] * report.n_reachable, pid
        assert report.n_reachable > 0
        records.clear()
