"""What the traced run wraps, and how its spans become per-layer metrics.

A span is (name, start, end, parent index) from one child process; the
parent index is -1 for a root span.  Every list here is shared by the shim
(which records spans inside the child) and by ``run.py`` (which reads them).
"""

from __future__ import annotations

from collections import defaultdict

# module -> public functions wrapped in every qmtest namespace that binds them
FUNCTIONS = {
    "pauli": ("mu_vector", "pauli_matrix", "q_distribution", "xi_distribution"),
    "schur": ("build_schur_transform", "verify_schur_basis", "block_decompose",
              "isotypic_projectors"),
    "blackbox": ("paired_swap_zeros",),
    "testers": ("test_stabilizer", "test_klocal", "test_perminv", "test_finite_set",
                "estimate_distance"),
    "metric": ("delta_measurement", "delta_measurement_numeric",
               "distance_to_stabilizer_family"),
    "core": ("validate_measurement",),
    "cli": ("load_measurement", "load_schur_cache", "emit_report", "main"),
}
# BlackBox methods, wrapped on the class and named blackbox.<method>
BLACKBOX_METHODS = ("query_batch", "label_batch", "sample_outcome_counts",
                    "sample_label_counts", "sample_joint_label_counts", "sign_plus_prob",
                    "schur_audit", "schur_iteration")
ROOT = "cli.main"
LAYERS = tuple(FUNCTIONS)
SAMPLERS = ("blackbox.query_batch", "blackbox.label_batch", "blackbox.paired_swap_zeros")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    out = []
    for i in range(len(start)):
        covered = 0.0
        reach = start[i]
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo = max(start[c], reach)
            hi = min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end[i] - start[i] - covered)
    return out


class LayerTotals:
    """Per-name sums over the traced operations of a run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.first_s: dict[str, float] = defaultdict(float)
        self.amount: dict[str, float] = defaultdict(float)
        self.amount_max: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.startup_s = 0.0

    def add_operation(self, wall_s: float, names, start, end, parent, amount):
        """Fold in one child's spans; ``names[i]`` is the name of span i."""
        self.wall_s += wall_s
        selfs = self_times(start, end, parent)
        seen = set()
        for i, name in enumerate(names):
            self.calls[name] += 1
            self.self_s[name] += selfs[i]
            self.amount[name] += amount[i]
            self.amount_max[name] = max(self.amount_max[name], amount[i])
            if name not in seen:
                seen.add(name)
                self.first_s[name] += end[i] - start[i]
            if name == ROOT and parent[i] < 0:
                self.startup_s += wall_s - (end[i] - start[i])

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items()
                   if k.split(".")[0] == layer and k != ROOT)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass figures; counts and sizes that do not add up are maxima."""
        s, c, a = self.self_s, self.calls, self.amount

        def per(v):
            return v / passes

        samples = sum(a[k] for k in SAMPLERS)
        sampler_s = sum(s[k] for k in SAMPLERS)
        named = sum(v for k, v in s.items() if k != ROOT)
        out = {
            "pauli.mu_vector.calls": (per(c["pauli.mu_vector"]), "count"),
            "pauli.mu_vector.self_s": (per(s["pauli.mu_vector"]), "s"),
            "pauli.mu_vector.first_s": (per(self.first_s["pauli.mu_vector"]), "s"),
            "pauli.pauli_matrix.calls": (per(c["pauli.pauli_matrix"]), "count"),
            "pauli.pauli_matrix.self_s": (per(s["pauli.pauli_matrix"]), "s"),
            "pauli.q_distribution.self_s": (per(s["pauli.q_distribution"]), "s"),
            "pauli.xi_distribution.self_s": (per(s["pauli.xi_distribution"]), "s"),
            "pauli.label_table_mb": (self.amount_max["pauli.mu_vector"] / 2**20, "MB"),
            "schur.build_schur_transform.self_s": (per(s["schur.build_schur_transform"]), "s"),
            "schur.verify_schur_basis.self_s": (per(s["schur.verify_schur_basis"]), "s"),
            "schur.block_decompose.calls": (per(c["schur.block_decompose"]), "count"),
            "schur.block_decompose.self_s": (per(s["schur.block_decompose"]), "s"),
            "schur.isotypic_projectors.self_s": (per(s["schur.isotypic_projectors"]), "s"),
            "schur.perm_terms": (max(self.amount_max["schur.build_schur_transform"],
                                     self.amount_max["schur.block_decompose"]), "count"),
        }
        for name in ("query_batch", "label_batch", "paired_swap_zeros"):
            out[f"blackbox.{name}.samples"] = (per(a[f"blackbox.{name}"]), "count")
            out[f"blackbox.{name}.self_s"] = (per(s[f"blackbox.{name}"]), "s")
        for name in ("sample_outcome_counts", "sample_label_counts",
                     "sample_joint_label_counts", "sign_plus_prob", "schur_audit"):
            out[f"blackbox.{name}.self_s"] = (per(s[f"blackbox.{name}"]), "s")
        out["blackbox.schur_iteration.calls"] = (per(c["blackbox.schur_iteration"]), "count")
        out["blackbox.samples_per_s"] = (samples / sampler_s if sampler_s > 0 else 0.0, "1/s")
        for name in FUNCTIONS["testers"]:
            out[f"testers.{name}.self_s"] = (per(s[f"testers.{name}"]), "s")
        out["testers.queries_charged"] = (
            per(sum(a[f"testers.{name}"] for name in FUNCTIONS["testers"])), "count")
        out.update({
            "metric.delta_measurement.calls": (per(c["metric.delta_measurement"]), "count"),
            "metric.delta_measurement.self_s": (per(s["metric.delta_measurement"]), "s"),
            "metric.delta_measurement_numeric.self_s":
                (per(s["metric.delta_measurement_numeric"]), "s"),
            "metric.distance_to_stabilizer_family.self_s":
                (per(s["metric.distance_to_stabilizer_family"]), "s"),
            "core.validate_measurement.calls": (per(c["core.validate_measurement"]), "count"),
            "core.validate_measurement.self_s": (per(s["core.validate_measurement"]), "s"),
            "cli.load_measurement.self_s": (per(s["cli.load_measurement"]), "s"),
            "cli.load_measurement.bytes": (per(a["cli.load_measurement"]), "B"),
            "cli.load_schur_cache.self_s": (per(s["cli.load_schur_cache"]), "s"),
            "cli.emit_report.self_s": (per(s["cli.emit_report"]), "s"),
            "cli.main.self_s": (per(s[ROOT]), "s"),
            "process.startup_s": (per(self.startup_s), "s"),
            "trace.operation_wall_s": (per(self.wall_s), "s"),
            "trace.coverage": ((named + self.startup_s) / self.wall_s, "share"),
        })
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = (per(self.layer_self_s(layer)), "s")
        return out

    def dominant_layer(self) -> str:
        return max(LAYERS, key=self.layer_self_s)
