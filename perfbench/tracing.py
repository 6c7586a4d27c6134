"""Layer spans from the benchmark's side of each call into cornerlab.

`Tracer.install()` wraps the public functions listed in LAYERS and rebinds
every name that refers to them in the loaded cornerlab modules (protocols,
for example, imports `measure` and `to_matrix` by name, and cli imports
`build_realspace_bdg`).  While `active` is set, each wrapped call records a
span (layer, start, end, parent, operation); the spans stay in memory and
are written out at the end.  A span's self time is its length minus the
spans directly inside it.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# layer -> (module, attribute) pairs; "Class.method" patches the class.
LAYERS = {
    "lattice.build": [("lattice", "build_realspace_bdg"),
                      ("lattice", "kitaev_chain_bdg")],
    "floquet.assemble": [("floquet", "assemble_sambe")],
    "floquet.spectrum": [("floquet", "quasienergy_spectrum")],
    "floquet.rotate": [("floquet", "corner_basis_rotation"),
                       ("floquet", "corner_localization")],
    "cli.command": [("cli", "main")],
    "majorana.measure": [("majorana", "measure")],
    "majorana.to_matrix": [("majorana", "to_matrix")],
    "majorana.codec": [("majorana", "encode_logical"),
                       ("majorana", "decode_logical"),
                       ("majorana", "expectation")],
    "protocols.enumerate": [("protocols", "enumerate_branches")],
    "protocols.run": [("protocols", n) for n in (
        "run_protocol", "run_pauli_fix", "run_hadamard", "run_phase",
        "run_cnot", "run_tgate")],
    "protocols.fidelity": [("protocols", "logical_fidelity")],
    "perturbation.toy_build": [("perturbation", "two_lead_toy"),
                               ("perturbation", "four_lead_toy")],
    "perturbation.exact": [("perturbation", "ToyModel.exact_levels"),
                           ("perturbation",
                            "PerturbationProblem.exact_quasienergies")],
    "perturbation.effective": [("perturbation", n) for n in (
        "effective_hamiltonian", "effective_two_lead_block",
        "verify_effective_model", "signed_splitting",
        "lead_effective_coupling", "four_lead_effective")],
    "perturbation.expansion": [("perturbation", n) for n in (
        "majorana_mode_expansion", "quadratic_from_bdg", "zero_mode_seeds",
        "pi_mode_seeds")],
    "readout.conductance": [("readout", "two_lead_conductance"),
                            ("readout", "joint_conductance")],
    "readout.tune": [("readout", "tune_fluxes")],
}

# (module, attribute) -> the count metric its calls add to
COUNTED = {
    ("majorana", "measure"): "majorana.measure_calls",
    ("majorana", "to_matrix"): "majorana.to_matrix_calls",
    ("protocols", "run_protocol"): "protocols.runs",
    ("perturbation", "ToyModel.exact_levels"): "perturbation.exact_calls",
    ("perturbation", "PerturbationProblem.exact_quasienergies"):
        "perturbation.exact_calls",
    ("readout", "two_lead_conductance"): "readout.conductance_calls",
    ("readout", "joint_conductance"): "readout.conductance_calls",
}

# the per-layer metrics: self seconds of every layer, the total of a CLI
# command, its self time, the assembled Sambe matrix size and the counts
SECONDS = {f"{layer}_s": layer for layer in LAYERS if layer != "cli.command"}
SECONDS["cli.self_s"] = "cli.command"


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.layer_names = list(LAYERS)
        self._self = [0.0] * len(self.layer_names)
        self._total = [0.0] * len(self.layer_names)
        self.counts = dict.fromkeys(COUNTED.values(), 0)
        self.sambe_bytes = 0
        self._stack = []                      # [span index, start, child time]
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")

    # -- patching ---------------------------------------------------------

    def install(self):
        for li, layer in enumerate(self.layer_names):
            for mod_name, attr in LAYERS[layer]:
                module = sys.modules[f"cornerlab.{mod_name}"]
                owner, name = module, attr
                if "." in attr:
                    cls_name, name = attr.split(".")
                    owner = getattr(module, cls_name)
                orig = getattr(owner, name)
                wrapper = self._wrap(orig, li, COUNTED.get((mod_name, attr)),
                                     attr == "assemble_sambe")
                setattr(owner, name, wrapper)
                if owner is module:
                    self._rebind(orig, wrapper)

    @staticmethod
    def _rebind(orig, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("cornerlab") or module is None:
                continue
            for key, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, key, wrapper)

    def _wrap(self, fn, layer, count_key, record_size):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count_key is not None:
                tracer.counts[count_key] += 1
            tracer._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if record_size:
                tracer.sambe_bytes = max(tracer.sambe_bytes, out.matrix.nbytes)
            return out

        return wrapper

    # -- spans ------------------------------------------------------------

    def _enter(self, layer):
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_layer.append(layer)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([idx, start, 0.0])

    def _exit(self):
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        layer = self.span_layer[idx]
        self._self[layer] += dur - child
        self._total[layer] += dur
        if self._stack:
            self._stack[-1][2] += dur

    # -- results ----------------------------------------------------------

    def metrics(self, rounds):
        """Per-layer metrics per round of the workload."""
        out = {}
        for name, layer in SECONDS.items():
            out[name] = self._self[self.layer_names.index(layer)] / rounds
        out["cli.command_s"] = self._total[self.layer_names.index("cli.command")] / rounds
        for name, n in self.counts.items():
            out[name] = n / rounds
        out["floquet.sambe_mb"] = self.sambe_bytes / 1e6
        return out

    def write_spans(self, path):
        """Spans as gzip CSV: layer,start,end,parent,op (times relative to
        the first span, parent = row number of the enclosing span or -1)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("layer,start,end,parent,op\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.layer_names[self.span_layer[i]]},"
                         f"{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f},"
                         f"{self.span_parent[i]},{self.span_op[i]}\n")
