"""One driver per paper figure/table (see DESIGN.md's experiment index).

Every driver returns a small result object carrying the measured values
plus the paper's reference numbers, and a ``render()`` method producing
the ASCII table the benchmarks print.  Budget arguments let benchmarks
trade fidelity for wall-clock; defaults reproduce the paper's settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import DAC, GBORL, QTune, Tuneful
from repro.core import LOCAT, SparkSQLObjective
from repro.core.iicp import run_cps, run_cpe
from repro.core.qcsa import analyze_samples
from repro.harness.experiment import (
    BASELINE_CLASSES,
    collect_cv_samples,
    collect_iicp_samples,
    compare_tuners,
    make_simulator,
)
from repro.harness.report import format_series, format_table
from repro.ml import (
    GradientBoostedRegressionTrees,
    KNNRegressor,
    KernelSVR,
    LinearRegression,
    LogisticRegression,
    mean_squared_error,
    train_test_split,
)
from repro.sparksim import get_application
from repro.sparksim.workloads import DISPLAY_NAMES
from repro.sparksim.workloads.tpcds import CSQ_SHUFFLE_FRACTIONS
from repro.stats import coefficient_of_variation
from repro.stats.sampling import ensure_rng

#: The paper's CSQ set for TPC-DS (section 5.2).
PAPER_CSQ = frozenset(CSQ_SHUFFLE_FRACTIONS)

#: Average optimization-time reductions (Figures 11-12) per cluster.
PAPER_OPT_TIME_REDUCTION = {
    "arm": {"Tuneful": 6.4, "DAC": 7.0, "GBO-RL": 4.1, "QTune": 9.7},
    "x86": {"Tuneful": 6.4, "DAC": 6.3, "GBO-RL": 4.0, "QTune": 9.2},
}

#: Average speedups of LOCAT-tuned configs (Figures 13-14) per cluster.
PAPER_SPEEDUP = {
    "arm": {"Tuneful": 2.4, "DAC": 2.2, "GBO-RL": 2.0, "QTune": 1.9},
    "x86": {"Tuneful": 2.8, "DAC": 2.6, "GBO-RL": 2.3, "QTune": 2.1},
}

#: Table 3: the paper's top-5 CPS parameters for TPC-DS at three sizes.
PAPER_TABLE3 = {
    100.0: [
        "sql.shuffle.partitions",
        "executor.memory",
        "executor.cores",
        "shuffle.compress",
        "executor.instances",
    ],
    500.0: [
        "sql.shuffle.partitions",
        "shuffle.compress",
        "executor.memory",
        "executor.instances",
        "executor.cores",
    ],
    1024.0: [
        "sql.shuffle.partitions",
        "shuffle.compress",
        "executor.memory",
        "executor.instances",
        "memory.offHeap.size",
    ],
}


# ----------------------------------------------------------------------
# Figure 2 — SOTA optimization overhead vs datasize
# ----------------------------------------------------------------------
@dataclass
class Fig02Result:
    datasizes: tuple[float, ...]
    overhead_hours: dict[str, list[float]]  # tuner -> per-datasize hours

    def render(self) -> str:
        return format_series(
            "datasize_gb",
            self.datasizes,
            self.overhead_hours,
            title="Figure 2: optimization overhead (hours) of SOTA tuners on TPC-DS",
        )


def fig02_sota_overhead(
    cluster: str = "x86",
    datasizes: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0),
    seed: int = 7,
    benchmark: str = "tpcds",
) -> Fig02Result:
    """Each SOTA tuner's total sample-collection time per datasize.

    Paper observations to reproduce: every tuner needs tens-to-hundreds
    of hours even at 100 GB, and the cost grows steeply with datasize.
    """
    app = get_application(benchmark)
    overhead: dict[str, list[float]] = {cls.NAME: [] for cls in BASELINE_CLASSES}
    for cls in BASELINE_CLASSES:
        for ds in datasizes:
            tuner = cls(make_simulator(cluster), app, rng=seed)
            overhead[cls.NAME].append(tuner.tune(ds).overhead_hours)
    return Fig02Result(datasizes=datasizes, overhead_hours=overhead)


# ----------------------------------------------------------------------
# Figure 6 — KPCA kernel choice
# ----------------------------------------------------------------------
@dataclass
class Fig06Result:
    sd_by_kernel: dict[str, dict[str, float]]  # benchmark -> kernel -> SD

    def render(self) -> str:
        kernels = ("gaussian", "perceptron", "polynomial")
        rows = [
            [bench, *(self.sd_by_kernel[bench][k] for k in kernels)]
            for bench in self.sd_by_kernel
        ]
        return format_table(
            ["benchmark", *kernels],
            rows,
            title="Figure 6: SD of execution times by KPCA kernel (higher = better kernel)",
        )

    def gaussian_wins(self, benchmark: str) -> bool:
        sds = self.sd_by_kernel[benchmark]
        return sds["gaussian"] == max(sds.values())


def fig06_kernel_choice(
    benchmarks: tuple[str, ...] = ("tpcds", "tpch"),
    cluster: str = "x86",
    datasize_gb: float = 300.0,
    n_samples: int = 30,
    n_probe: int = 20,
    seed: int = 7,
) -> Fig06Result:
    """Compare KPCA kernels by the SD of execution times they induce.

    Following section 3.3.2: configurations sampled through each kernel's
    latent space are executed; a larger SD means the kernel's components
    capture more performance-relevant structure.  The paper finds the
    Gaussian kernel wins on both TPC-DS and TPC-H.
    """
    out: dict[str, dict[str, float]] = {}
    for benchmark in benchmarks:
        configs, durations, simulator = collect_iicp_samples(
            benchmark, cluster, datasize_gb, n_samples=n_samples, rng=seed
        )
        app = get_application(benchmark)
        cps = run_cps(simulator.space, configs, durations)
        gen = ensure_rng(seed + 1)
        out[DISPLAY_NAMES[benchmark]] = {}
        for kernel in ("gaussian", "perceptron", "polynomial"):
            cpe = run_cpe(simulator.space, configs, cps, kernel=kernel, n_components=10)
            low, high = cpe.kpca.latent_bounds()
            times = []
            for _ in range(n_probe):
                z = low + gen.random(cpe.n_components) * (high - low)
                point = cpe.kpca.inverse_transform(z[None, :])[0]
                config = simulator.space.decode_subset(point, list(cps.selected))
                times.append(simulator.run(app, config, datasize_gb, rng=gen).duration_s)
            out[DISPLAY_NAMES[benchmark]][kernel] = float(np.std(times))
    return Fig06Result(sd_by_kernel=out)


# ----------------------------------------------------------------------
# Figure 7 — CV convergence vs N_QCSA
# ----------------------------------------------------------------------
@dataclass
class Fig07Result:
    sample_counts: tuple[int, ...]
    mean_cv: dict[str, list[float]]  # benchmark -> mean CV per N

    def render(self) -> str:
        return format_series(
            "N_QCSA",
            self.sample_counts,
            self.mean_cv,
            title="Figure 7: mean query CV vs number of QCSA samples (flat after ~30)",
        )

    def converged_after(self, benchmark: str, n: int = 30, tolerance: float = 0.12) -> bool:
        """CV change stays within ``tolerance`` (relative) beyond ``n``."""
        values = self.mean_cv[benchmark]
        tail = [v for c, v in zip(self.sample_counts, values) if c >= n]
        if len(tail) < 2:
            return True
        return (max(tail) - min(tail)) <= tolerance * max(max(tail), 1e-9)


def fig07_nqcsa(
    benchmarks: tuple[str, ...] = ("tpcds", "tpch"),
    cluster: str = "arm",
    datasize_gb: float = 300.0,
    sample_counts: tuple[int, ...] = (10, 15, 20, 25, 30, 35, 40, 45, 50, 55),
    seed: int = 7,
) -> Fig07Result:
    """How the CV estimate changes as QCSA samples accumulate."""
    max_n = max(sample_counts)
    out: dict[str, list[float]] = {}
    for benchmark in benchmarks:
        samples = collect_cv_samples(benchmark, cluster, datasize_gb, n_samples=max_n, rng=seed)
        series = []
        for n in sample_counts:
            cvs = [coefficient_of_variation(times[:n]) for times in samples.values()]
            series.append(float(np.mean(cvs)))
        out[DISPLAY_NAMES[benchmark]] = series
    return Fig07Result(sample_counts=sample_counts, mean_cv=out)


# ----------------------------------------------------------------------
# Figure 8 — per-query CV for TPC-DS + the CSQ/CIQ split
# ----------------------------------------------------------------------
@dataclass
class Fig08Result:
    cvs: dict[str, float]
    csq: tuple[str, ...]
    ciq: tuple[str, ...]
    threshold: float

    @property
    def overlap_with_paper(self) -> int:
        return len(set(self.csq) & PAPER_CSQ)

    def render(self) -> str:
        ranked = sorted(self.cvs.items(), key=lambda kv: -kv[1])
        rows = [[name, cv, "CSQ" if name in self.csq else "CIQ"] for name, cv in ranked[:30]]
        table = format_table(
            ["query", "CV", "class"],
            rows,
            title="Figure 8 (top 30 by CV): TPC-DS query configuration sensitivity",
        )
        summary = (
            f"\nCSQ: {len(self.csq)} queries (paper: 23); overlap with the paper's set: "
            f"{self.overlap_with_paper}/23; threshold {self.threshold:.2f}"
        )
        return table + summary


def fig08_query_cv(
    cluster: str = "arm",
    datasize_gb: float = 300.0,
    n_samples: int = 30,
    seed: int = 42,
) -> Fig08Result:
    """Per-query CVs over N_QCSA=30 random configurations (TPC-DS)."""
    samples = collect_cv_samples("tpcds", cluster, datasize_gb, n_samples=n_samples, rng=seed)
    result = analyze_samples(samples)
    return Fig08Result(cvs=result.cvs, csq=result.csq, ciq=result.ciq, threshold=result.threshold)


# ----------------------------------------------------------------------
# Figure 9 — number of important parameters vs N_IICP
# ----------------------------------------------------------------------
@dataclass
class Fig09Result:
    sample_counts: tuple[int, ...]
    n_selected: dict[str, list[int]]  # benchmark -> CPS-selected count per N
    top5: dict[str, dict[int, list[str]]]  # benchmark -> N -> top-5 params

    def render(self) -> str:
        return format_series(
            "N_IICP",
            self.sample_counts,
            self.n_selected,
            title="Figure 9: CPS-selected parameter count vs sample count (stable after ~20)",
        )

    def stable_after(self, benchmark: str, n: int = 20, spread: int = 6) -> bool:
        values = [
            v for c, v in zip(self.sample_counts, self.n_selected[benchmark]) if c >= n
        ]
        return not values or (max(values) - min(values)) <= spread

    def head_overlap(self, benchmark: str, n_small: int = 20, n_large: int | None = None) -> int:
        """How many of the top-5 at ``n_small`` samples remain in the
        top-5 at the largest sample count — the ranking-head stability
        that makes N_IICP=20 sufficient for tuning."""
        per_n = self.top5[benchmark]
        if n_large is None:
            n_large = max(per_n)
        return len(set(per_n[n_small]) & set(per_n[n_large]))


def fig09_niicp(
    benchmarks: tuple[str, ...] = ("tpcds", "tpch", "join", "scan", "aggregation"),
    cluster: str = "x86",
    datasize_gb: float = 300.0,
    sample_counts: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    seed: int = 7,
) -> Fig09Result:
    """How the identified-important-parameter count varies with N_IICP."""
    max_n = max(sample_counts)
    out: dict[str, list[int]] = {}
    top5: dict[str, dict[int, list[str]]] = {}
    for benchmark in benchmarks:
        configs, durations, simulator = collect_iicp_samples(
            benchmark, cluster, datasize_gb, n_samples=max_n, rng=seed
        )
        series = []
        top5[DISPLAY_NAMES[benchmark]] = {}
        for n in sample_counts:
            cps = run_cps(simulator.space, configs[:n], durations[:n])
            series.append(len(cps.selected))
            top5[DISPLAY_NAMES[benchmark]][n] = cps.top(5)
        out[DISPLAY_NAMES[benchmark]] = series
    return Fig09Result(sample_counts=sample_counts, n_selected=out, top5=top5)


# ----------------------------------------------------------------------
# Figure 10 — parameter counts: original vs CPS vs CPE
# ----------------------------------------------------------------------
@dataclass
class Fig10Result:
    counts: dict[str, tuple[int, int, int]]  # benchmark -> (orig, cps, cpe)

    def render(self) -> str:
        rows = [[b, *c] for b, c in self.counts.items()]
        return format_table(
            ["benchmark", "original", "CPS", "CPE"],
            rows,
            title="Figure 10: parameters kept by CPS and extracted by CPE (paper: 38 -> ~26-31 -> ~8-15)",
        )


def fig10_cps_cpe(
    benchmarks: tuple[str, ...] = ("tpcds", "tpch", "join", "scan", "aggregation"),
    cluster: str = "x86",
    datasize_gb: float = 300.0,
    n_samples: int = 20,
    seed: int = 7,
) -> Fig10Result:
    """CPS keeps ~2/3 of the 38 parameters; CPE extracts ~1/3 of those."""
    counts: dict[str, tuple[int, int, int]] = {}
    for benchmark in benchmarks:
        configs, durations, simulator = collect_iicp_samples(
            benchmark, cluster, datasize_gb, n_samples=n_samples, rng=seed
        )
        cps = run_cps(simulator.space, configs, durations)
        cap = min(15, max(5, len(cps.selected) // 2))
        cpe = run_cpe(simulator.space, configs, cps, n_components=cap)
        counts[DISPLAY_NAMES[benchmark]] = (simulator.space.dim, len(cps.selected), cpe.n_components)
    return Fig10Result(counts=counts)


# ----------------------------------------------------------------------
# Table 3 — top-5 important parameters by datasize
# ----------------------------------------------------------------------
@dataclass
class Tab03Result:
    top5: dict[float, list[str]]  # datasize -> top-5 parameter names

    def render(self) -> str:
        rows = []
        for rank in range(5):
            row = [f"#{rank + 1}"]
            for ds in self.top5:
                row.append(self.top5[ds][rank])
            rows.append(row)
        headers = ["rank", *(f"{ds:.0f}GB" for ds in self.top5)]
        return format_table(headers, rows, title="Table 3: top-5 CPS parameters for TPC-DS")

    def overlap_with_paper(self, datasize_gb: float) -> int:
        return len(set(self.top5[datasize_gb]) & set(PAPER_TABLE3[datasize_gb]))


def tab03_top_params(
    cluster: str = "x86",
    datasizes: tuple[float, ...] = (100.0, 500.0, 1024.0),
    n_samples: int = 40,
    seed: int = 7,
) -> Tab03Result:
    """Top-5 parameters by |SCC| for TPC-DS at 100 GB / 500 GB / 1 TB."""
    top5: dict[float, list[str]] = {}
    for ds in datasizes:
        configs, durations, simulator = collect_iicp_samples(
            "tpcds", cluster, ds, n_samples=n_samples, rng=seed
        )
        cps = run_cps(simulator.space, configs, durations)
        top5[ds] = cps.top(5)
    return Tab03Result(top5=top5)


# ----------------------------------------------------------------------
# Figures 11/12 — optimization-time reduction per benchmark
# ----------------------------------------------------------------------
@dataclass
class Fig11Result:
    cluster: str
    reductions: dict[str, dict[str, float]]  # benchmark -> baseline -> ratio

    def averages(self) -> dict[str, float]:
        names = next(iter(self.reductions.values())).keys()
        return {
            n: float(np.mean([self.reductions[b][n] for b in self.reductions]))
            for n in names
        }

    def render(self) -> str:
        names = list(next(iter(self.reductions.values())))
        rows = [[b, *(self.reductions[b][n] for n in names)] for b in self.reductions]
        avg = self.averages()
        rows.append(["Average", *(avg[n] for n in names)])
        paper = PAPER_OPT_TIME_REDUCTION[self.cluster]
        rows.append(["Paper avg", *(paper[n] for n in names)])
        fig = "11" if self.cluster == "arm" else "12"
        return format_table(
            ["benchmark", *names],
            rows,
            title=f"Figure {fig}: optimization-time reduction vs LOCAT ({self.cluster} cluster)",
        )


def fig11_opt_time(
    cluster: str = "arm",
    benchmarks: tuple[str, ...] = ("tpcds", "tpch", "join", "scan", "aggregation"),
    datasize_gb: float = 300.0,
    seed: int = 11,
) -> Fig11Result:
    """Baseline optimization time divided by LOCAT's, per benchmark."""
    reductions: dict[str, dict[str, float]] = {}
    for benchmark in benchmarks:
        comparison = compare_tuners(benchmark, cluster, datasize_gb, seed=seed)
        reductions[DISPLAY_NAMES[benchmark]] = {
            name: comparison.overhead_ratio(name)
            for name in comparison.results
            if name != "LOCAT"
        }
    return Fig11Result(cluster=cluster, reductions=reductions)


def fig12_opt_time(**kwargs) -> Fig11Result:
    """Figure 12 is Figure 11 on the x86 cluster."""
    kwargs.setdefault("cluster", "x86")
    return fig11_opt_time(**kwargs)


# ----------------------------------------------------------------------
# Figures 13/14 — speedups over baseline-tuned configurations
# ----------------------------------------------------------------------
@dataclass
class Fig13Result:
    cluster: str
    speedups: dict[str, dict[float, dict[str, float]]]  # bench -> ds -> baseline -> x

    def averages(self) -> dict[str, float]:
        acc: dict[str, list[float]] = {}
        for per_ds in self.speedups.values():
            for per_baseline in per_ds.values():
                for name, value in per_baseline.items():
                    acc.setdefault(name, []).append(value)
        return {n: float(np.mean(v)) for n, v in acc.items()}

    def render(self) -> str:
        names = sorted(self.averages())
        rows = []
        for bench, per_ds in self.speedups.items():
            for ds, per_baseline in per_ds.items():
                rows.append([f"{bench}@{ds:.0f}GB", *(per_baseline[n] for n in names)])
        avg = self.averages()
        rows.append(["Average", *(avg[n] for n in names)])
        paper = PAPER_SPEEDUP[self.cluster]
        rows.append(["Paper avg", *(paper[n] for n in names)])
        fig = "13" if self.cluster == "arm" else "14"
        return format_table(
            ["pair", *names],
            rows,
            title=(
                f"Figure {fig}: speedup of LOCAT-tuned configs over baseline-tuned "
                f"({self.cluster}; baselines tuned once, LOCAT adapts across datasizes)"
            ),
        )


def fig13_speedup(
    cluster: str = "arm",
    benchmarks: tuple[str, ...] = ("tpcds", "tpch", "join", "scan", "aggregation"),
    datasizes: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0),
    seed: int = 7,
    locat_iterations: int = 25,
) -> Fig13Result:
    """Speedups across the 25 program-input pairs.

    Baselines tune each benchmark once (at the smallest datasize — they
    cannot adapt to datasize changes, the paper's core critique), and
    their configuration is reused for the other sizes.  LOCAT tunes
    online: one bootstrap, then cheap DAGP adaptation per datasize.
    """
    speedups: dict[str, dict[float, dict[str, float]]] = {}
    for benchmark in benchmarks:
        app = get_application(benchmark)
        simulator = make_simulator(cluster)
        baseline_results = {
            cls.NAME: cls(make_simulator(cluster), app, rng=seed).tune(datasizes[0])
            for cls in BASELINE_CLASSES
        }
        locat = LOCAT(simulator, app, rng=seed, max_iterations=locat_iterations)
        gen = ensure_rng(seed + 1)
        per_ds: dict[float, dict[str, float]] = {}
        for ds in datasizes:
            locat_result = locat.tune(ds)
            per_baseline = {}
            for name, result in baseline_results.items():
                runtime = float(
                    np.mean(
                        [
                            simulator.run(app, result.best_config, ds, rng=gen).duration_s
                            for _ in range(3)
                        ]
                    )
                )
                per_baseline[name] = runtime / locat_result.best_duration_s
            per_ds[ds] = per_baseline
        speedups[DISPLAY_NAMES[benchmark]] = per_ds
    return Fig13Result(cluster=cluster, speedups=speedups)


def fig14_speedup(**kwargs) -> Fig13Result:
    """Figure 14 is Figure 13 on the x86 cluster."""
    kwargs.setdefault("cluster", "x86")
    return fig13_speedup(**kwargs)


# ----------------------------------------------------------------------
# Figure 15 — tuning all parameters (AP) vs important parameters (IP)
# ----------------------------------------------------------------------
@dataclass
class Fig15Result:
    datasizes: tuple[float, ...]
    ap_durations: list[float]
    ip_durations: list[float]

    @property
    def mean_improvement(self) -> float:
        return float(np.mean(np.array(self.ap_durations) / np.array(self.ip_durations)))

    def render(self) -> str:
        table = format_series(
            "datasize_gb",
            self.datasizes,
            {"AP (all 38)": self.ap_durations, "IP (important)": self.ip_durations},
            title="Figure 15: TPC-DS tuned with all parameters vs important parameters",
        )
        return table + f"\nIP beats AP by {self.mean_improvement:.2f}x on average (paper: 1.8x)"


def fig15_ap_vs_ip(
    cluster: str = "x86",
    datasizes: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0),
    seed: int = 7,
    locat_iterations: int = 25,
) -> Fig15Result:
    """LOCAT with IICP (IP) vs the all-parameters ablation (AP).

    The final greedy polish is disabled for both variants: it operates in
    the raw configuration space and would mask the dimensionality effect
    this experiment isolates (BO over 38 dimensions vs over the IICP
    latents).
    """
    app = get_application("tpcds")
    ap = LOCAT(make_simulator(cluster), app, rng=seed, use_iicp=False,
               use_polish=False, max_iterations=locat_iterations)
    ip = LOCAT(make_simulator(cluster), app, rng=seed, use_polish=False,
               max_iterations=locat_iterations)
    ap_durations = [ap.tune(ds).best_duration_s for ds in datasizes]
    ip_durations = [ip.tune(ds).best_duration_s for ds in datasizes]
    return Fig15Result(datasizes=datasizes, ap_durations=ap_durations, ip_durations=ip_durations)


# ----------------------------------------------------------------------
# Figure 16 — performance-model accuracy comparison
# ----------------------------------------------------------------------
@dataclass
class Fig16Result:
    mse: dict[str, dict[str, float]]  # benchmark -> model -> MSE

    def model_names(self) -> list[str]:
        return list(next(iter(self.mse.values())))

    def averages(self) -> dict[str, float]:
        names = self.model_names()
        return {n: float(np.mean([self.mse[b][n] for b in self.mse])) for n in names}

    def render(self) -> str:
        names = self.model_names()
        rows = [[b, *(self.mse[b][n] for n in names)] for b in self.mse]
        avg = self.averages()
        rows.append(["AVG", *(avg[n] for n in names)])
        return format_table(
            ["benchmark", *names],
            rows,
            title="Figure 16: model MSE on normalized times (paper: GBRT lowest, <0.15 avg)",
        )


def fig16_model_mse(
    benchmarks: tuple[str, ...] = ("tpcds", "tpch", "join", "scan", "aggregation"),
    cluster: str = "x86",
    datasize_gb: float = 300.0,
    n_samples: int = 60,
    seed: int = 7,
) -> Fig16Result:
    """Train GBRT/SVR/LinearR/LR/KNNAR on the same data, compare MSE.

    Targets are min-max normalized to [0, 1] (as the paper's sub-0.3 MSE
    values imply) and measured on a held-out quarter of the corpus.
    """
    out: dict[str, dict[str, float]] = {}
    for benchmark in benchmarks:
        configs, durations, simulator = collect_iicp_samples(
            benchmark, cluster, datasize_gb, n_samples=n_samples, rng=seed
        )
        x = np.stack([simulator.space.encode(c) for c in configs])
        y = np.log(durations)
        y = (y - y.min()) / max(y.max() - y.min(), 1e-9)
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, test_fraction=0.25, rng=seed)
        models = {
            "GBRT": GradientBoostedRegressionTrees(n_estimators=120, max_depth=3, rng=seed),
            "SVR": KernelSVR(),
            "LinearR": LinearRegression(),
            "LR": LogisticRegression(),
            "KNNAR": KNNRegressor(n_neighbors=5),
        }
        out[DISPLAY_NAMES[benchmark]] = {}
        for name, model in models.items():
            model.fit(x_tr, y_tr)
            out[DISPLAY_NAMES[benchmark]][name] = mean_squared_error(y_te, model.predict(x_te))
    return Fig16Result(mse=out)


# ----------------------------------------------------------------------
# Figure 17 — IICP vs GBRT importance quality
# ----------------------------------------------------------------------
@dataclass
class Fig17Result:
    run_counts: tuple[int, ...]
    sd: dict[str, dict[str, list[float]]]  # benchmark -> method -> SD per count

    def render(self) -> str:
        blocks = []
        for benchmark, methods in self.sd.items():
            blocks.append(
                format_series(
                    "runs",
                    self.run_counts,
                    methods,
                    title=f"Figure 17 ({benchmark}): SD of times varying only the "
                    "identified-important parameters (higher = better identification)",
                )
            )
        return "\n\n".join(blocks)

    def iicp_wins(self, benchmark: str) -> bool:
        methods = self.sd[benchmark]
        return float(np.mean(methods["IICP"])) > float(np.mean(methods["GBRT"]))


def fig17_iicp_vs_gbrt(
    benchmarks: tuple[str, ...] = ("tpcds", "join"),
    cluster: str = "x86",
    datasize_gb: float = 100.0,
    run_counts: tuple[int, ...] = (5, 10, 15, 20, 25, 30),
    n_train: int = 20,
    top_k: int = 15,
    seed: int = 7,
) -> Fig17Result:
    """Vary only the top-k parameters chosen by IICP vs by GBRT importances.

    Higher SD of the resulting execution times means the chosen
    parameters matter more.  IICP gets the paper's N_IICP=20 samples;
    GBRT trains on the same 20 (its disadvantage: it needs far more).
    """
    out: dict[str, dict[str, list[float]]] = {}
    for benchmark in benchmarks:
        configs, durations, simulator = collect_iicp_samples(
            benchmark, cluster, datasize_gb, n_samples=n_train, rng=seed
        )
        space = simulator.space
        app = get_application(benchmark)
        cps = run_cps(space, configs, durations)
        iicp_params = cps.top(top_k)

        x = np.stack([space.encode(c) for c in configs])
        gbrt = GradientBoostedRegressionTrees(n_estimators=80, max_depth=3, rng=seed)
        gbrt.fit(x, np.log(durations))
        importances = gbrt.feature_importances_
        order = np.argsort(importances)[::-1]
        gbrt_params = [space.names[i] for i in order[:top_k]]

        gen = ensure_rng(seed + 2)
        out[DISPLAY_NAMES[benchmark]] = {"IICP": [], "GBRT": []}
        max_runs = max(run_counts)
        times: dict[str, list[float]] = {"IICP": [], "GBRT": []}
        # Probe configs vary only the identified parameters; the others
        # sit at the mid-range point (anchoring them at Spark defaults
        # would park every probe in the same pathological corner and the
        # measured SD would reflect that corner, not the identification).
        base = space.decode(np.full(space.dim, 0.5))
        for method, params in (("IICP", iicp_params), ("GBRT", gbrt_params)):
            for _ in range(max_runs):
                point = gen.random(len(params))
                config = space.decode_subset(point, params, base=base)
                times[method].append(
                    simulator.run(app, config, datasize_gb, rng=gen).duration_s
                )
        for n in run_counts:
            out[DISPLAY_NAMES[benchmark]]["IICP"].append(float(np.std(times["IICP"][:n])))
            out[DISPLAY_NAMES[benchmark]]["GBRT"].append(float(np.std(times["GBRT"][:n])))
    return Fig17Result(run_counts=run_counts, sd=out)


# ----------------------------------------------------------------------
# Figure 18 — CSQ vs CIQ execution-time split
# ----------------------------------------------------------------------
@dataclass
class Fig18Result:
    datasizes: tuple[float, ...]
    split: dict[str, dict[float, tuple[float, float]]]  # tuner -> ds -> (csq_s, ciq_s)

    def render(self) -> str:
        rows = []
        for tuner, per_ds in self.split.items():
            for ds, (csq_s, ciq_s) in per_ds.items():
                rows.append([tuner, f"{ds:.0f}GB", csq_s, ciq_s])
        return format_table(
            ["tuner", "datasize", "CSQ time (s)", "CIQ time (s)"],
            rows,
            title="Figure 18: execution time split between CSQ and CIQ after tuning",
        )

    def csq_reduction_dominates(self, tuner_a: str = "LOCAT", tuner_b: str = "QTune") -> bool:
        """The tuner gap should come mostly from CSQ time (section 5.8)."""
        gaps_csq, gaps_ciq = [], []
        for ds in self.datasizes:
            a_csq, a_ciq = self.split[tuner_a][ds]
            b_csq, b_ciq = self.split[tuner_b][ds]
            gaps_csq.append(b_csq - a_csq)
            gaps_ciq.append(b_ciq - a_ciq)
        return float(np.sum(gaps_csq)) >= float(np.sum(gaps_ciq))


def fig18_csq_ciq(
    cluster: str = "x86",
    datasizes: tuple[float, ...] = (100.0, 200.0, 300.0),
    seed: int = 11,
    locat_iterations: int = 25,
) -> Fig18Result:
    """CSQ/CIQ time split of TPC-DS tuned by each approach."""
    app = get_application("tpcds")
    simulator = make_simulator(cluster)

    locat = LOCAT(simulator, app, rng=seed, max_iterations=locat_iterations)
    tuned: dict[str, object] = {}
    locat_result = None
    for ds in datasizes:
        locat_result = locat.tune(ds)
    tuned["LOCAT"] = locat_result.best_config
    csq = set(locat.csq)
    for cls in BASELINE_CLASSES:
        tuned[cls.NAME] = cls(make_simulator(cluster), app, rng=seed).tune(datasizes[0]).best_config

    gen = ensure_rng(seed + 3)
    split: dict[str, dict[float, tuple[float, float]]] = {}
    for name, config in tuned.items():
        split[name] = {}
        for ds in datasizes:
            metrics = simulator.run(app, config, ds, rng=gen)
            csq_s = sum(q.duration_s for q in metrics.queries if q.name in csq)
            ciq_s = metrics.duration_s - csq_s
            split[name][ds] = (csq_s, ciq_s)
    return Fig18Result(datasizes=datasizes, split=split)


# ----------------------------------------------------------------------
# Figure 19 — GC time comparison
# ----------------------------------------------------------------------
@dataclass
class Fig19Result:
    datasizes: tuple[float, ...]
    gc_seconds: dict[str, dict[str, list[float]]]  # benchmark -> tuner -> per ds

    def render(self) -> str:
        blocks = []
        for benchmark, per_tuner in self.gc_seconds.items():
            blocks.append(
                format_series(
                    "datasize_gb",
                    self.datasizes,
                    per_tuner,
                    title=f"Figure 19 ({benchmark}): JVM GC seconds under each tuner's config",
                )
            )
        return "\n\n".join(blocks)

    def locat_lowest(self, benchmark: str) -> bool:
        per_tuner = self.gc_seconds[benchmark]
        locat_total = float(np.sum(per_tuner["LOCAT"]))
        return all(
            locat_total <= float(np.sum(v)) + 1e-9
            for k, v in per_tuner.items()
            if k != "LOCAT"
        )


def fig19_gc_time(
    benchmarks: tuple[str, ...] = ("tpcds", "join"),
    cluster: str = "x86",
    datasizes: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0),
    seed: int = 11,
    locat_iterations: int = 25,
) -> Fig19Result:
    """GC time of each tuner's best config as datasize grows."""
    out: dict[str, dict[str, list[float]]] = {}
    for benchmark in benchmarks:
        app = get_application(benchmark)
        simulator = make_simulator(cluster)
        locat = LOCAT(simulator, app, rng=seed, max_iterations=locat_iterations)
        configs = {}
        result = None
        for ds in datasizes:
            result = locat.tune(ds)
        configs["LOCAT"] = result.best_config
        for cls in BASELINE_CLASSES:
            configs[cls.NAME] = (
                cls(make_simulator(cluster), app, rng=seed).tune(datasizes[0]).best_config
            )
        gen = ensure_rng(seed + 4)
        out[DISPLAY_NAMES[benchmark]] = {
            name: [simulator.run(app, cfg, ds, rng=gen).gc_s for ds in datasizes]
            for name, cfg in configs.items()
        }
    return Fig19Result(datasizes=datasizes, gc_seconds=out)


# ----------------------------------------------------------------------
# Figure 20 — tuning overhead when the input data size increases
# ----------------------------------------------------------------------
@dataclass
class Fig20Result:
    datasizes: tuple[float, ...]
    overhead_hours: dict[str, list[float]]

    def render(self) -> str:
        return format_series(
            "datasize_gb",
            self.datasizes,
            self.overhead_hours,
            title="Figure 20: tuning overhead (h) as datasize grows (LOCAT adapts, others re-tune)",
        )

    def locat_flattest(self) -> bool:
        """LOCAT's added overhead per new datasize is the smallest."""
        def growth(values: list[float]) -> float:
            return sum(values[1:])  # overhead paid after the first size

        locat_growth = growth(self.overhead_hours["LOCAT"])
        return all(
            locat_growth <= growth(v) + 1e-9
            for k, v in self.overhead_hours.items()
            if k != "LOCAT"
        )


def fig20_overhead_scaling(
    cluster: str = "x86",
    datasizes: tuple[float, ...] = (100.0, 200.0, 300.0),
    seed: int = 7,
    locat_iterations: int = 25,
) -> Fig20Result:
    """Overhead per datasize: LOCAT adapts online, baselines re-tune."""
    app = get_application("tpcds")
    overhead: dict[str, list[float]] = {"LOCAT": []}
    locat = LOCAT(make_simulator(cluster), app, rng=seed, max_iterations=locat_iterations)
    for ds in datasizes:
        overhead["LOCAT"].append(locat.tune(ds).overhead_hours)
    for cls in BASELINE_CLASSES:
        overhead[cls.NAME] = []
        for ds in datasizes:
            tuner = cls(make_simulator(cluster), app, rng=seed)
            overhead[cls.NAME].append(tuner.tune(ds).overhead_hours)
    return Fig20Result(datasizes=datasizes, overhead_hours=overhead)


# ----------------------------------------------------------------------
# Figure 21 — QCSA/IICP grafted onto the SOTA approaches
# ----------------------------------------------------------------------
@dataclass
class Fig21Result:
    variants: tuple[str, ...]
    duration: dict[str, dict[str, float]]  # tuner -> variant -> tuned duration
    overhead: dict[str, dict[str, float]]  # tuner -> variant -> hours

    def render(self) -> str:
        rows_d = [[t, *(self.duration[t][v] for v in self.variants)] for t in self.duration]
        rows_o = [[t, *(self.overhead[t][v] for v in self.variants)] for t in self.overhead]
        a = format_table(["tuner", *self.variants], rows_d,
                         title="Figure 21(a): tuned TPC-DS duration (s) by variant")
        b = format_table(["tuner", *self.variants], rows_o,
                         title="Figure 21(b): optimization overhead (h) by variant")
        return a + "\n\n" + b

    def qcsa_cuts_overhead(self, factor: float = 1.5) -> bool:
        """QCSA variants must cut overhead substantially (paper: 4.2x avg)."""
        ratios = [
            self.overhead[t]["APT"] / max(self.overhead[t]["QCSA"], 1e-9)
            for t in self.overhead
        ]
        return float(np.mean(ratios)) >= factor


def fig21_portability(
    cluster: str = "x86",
    datasize_gb: float = 500.0,
    seed: int = 11,
    baselines: tuple = (Tuneful, DAC),
) -> Fig21Result:
    """Apply QCSA and IICP sample reduction to the SOTA tuners.

    Variants: APT (all-parameter tuning, the vanilla baseline), IICP
    (tune only CPS-selected parameters), QCSA (evaluate only the RQA),
    and QIT (both).  The paper finds QCSA cuts overhead ~4.2x and the
    combination ~6.8x while also improving the tuned performance.

    The default hosts are Tuneful and DAC because their sample sets are
    search-independent (a fixed OAT design and a random corpus), so the
    QCSA discount shows up cleanly; search-coupled tuners like GBO-RL
    change their exploration path under the hook, which adds run-cost
    variance of the same order as the discount.
    """
    app = get_application("tpcds")
    simulator = make_simulator(cluster)

    # One shared QCSA + CPS analysis (as LOCAT would produce).
    samples = collect_cv_samples("tpcds", cluster, datasize_gb, n_samples=20, rng=seed)
    qcsa = analyze_samples(samples)
    configs, durations, sim2 = collect_iicp_samples(
        "tpcds", cluster, datasize_gb, n_samples=20, rng=seed
    )
    cps = run_cps(sim2.space, configs, durations)

    variants = ("APT", "IICP", "QCSA", "QIT")
    duration: dict[str, dict[str, float]] = {}
    overhead: dict[str, dict[str, float]] = {}
    gen = ensure_rng(seed + 5)
    for cls in baselines:
        duration[cls.NAME] = {}
        overhead[cls.NAME] = {}
        for variant in variants:
            kwargs = {}
            if variant in ("IICP", "QIT"):
                kwargs["subspace"] = list(cps.selected)
            if variant in ("QCSA", "QIT"):
                kwargs["rqa_queries"] = list(qcsa.csq)
            tuner = cls(make_simulator(cluster), app, rng=seed, **kwargs)
            result = tuner.tune(datasize_gb)
            measured = float(
                np.mean(
                    [
                        simulator.run(app, result.best_config, datasize_gb, rng=gen).duration_s
                        for _ in range(2)
                    ]
                )
            )
            duration[cls.NAME][variant] = measured
            overhead[cls.NAME][variant] = result.overhead_hours
    return Fig21Result(variants=variants, duration=duration, overhead=overhead)


# ----------------------------------------------------------------------
# Section 5.11 — why queries are configuration in/sensitive
# ----------------------------------------------------------------------
@dataclass
class Sec511Result:
    shuffle_gb: dict[str, float]
    cvs: dict[str, float]
    correlation: float

    def render(self) -> str:
        ranked = sorted(self.cvs, key=lambda q: -self.cvs[q])
        rows = [[q, self.shuffle_gb[q], self.cvs[q]] for q in ranked[:15]]
        table = format_table(
            ["query", "shuffle GB", "CV"],
            rows,
            title="Section 5.11: sensitivity tracks shuffle volume (top 15 by CV)",
        )
        return table + f"\nSpearman(shuffle volume, CV) = {self.correlation:.2f}"


def sec511_sensitivity_reasons(
    cluster: str = "arm",
    datasize_gb: float = 300.0,
    n_samples: int = 30,
    seed: int = 42,
) -> Sec511Result:
    """Correlate each query's shuffle volume with its CV."""
    from repro.stats.correlation import spearman

    app = get_application("tpcds")
    samples = collect_cv_samples("tpcds", cluster, datasize_gb, n_samples=n_samples, rng=seed)
    cvs = {name: coefficient_of_variation(times) for name, times in samples.items()}
    shuffle_gb = {q.name: q.total_shuffle_fraction * datasize_gb for q in app.queries}
    names = list(cvs)
    correlation = spearman([shuffle_gb[n] for n in names], [cvs[n] for n in names])
    return Sec511Result(shuffle_gb=shuffle_gb, cvs=cvs, correlation=correlation)
