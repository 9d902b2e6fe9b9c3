"""Benchmark of blasius-pinn: time-to-accuracy of `train`, a dense `compare`
and the RK4 oracle, each checked against a scipy reference.

    python3 perfbench/run.py --workload {train_compare,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from `src/`.
A run sets up once, then repeats whole rounds of the workload's operations
until S seconds have passed (at least one round).  With --trace 0 it prints
the end-to-end metrics; with --trace 1 it runs rounds untraced for S/2
seconds, then as many rounds traced, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object.  See
perfbench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

TOLERANCES = (1e-5, 1e-8)
STARTUPS = 5            # fresh-interpreter start-ups timed for setup_s
ORACLE_H = 1e-4
BLOWUP_H = 1e-5
TRAIN_NET_SEED = 0      # see README: why the network seed is fixed

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "time_to_1e-5_s": "s",
                    "time_to_1e-8_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def config_text(seed: int, entries: dict) -> str:
    """The run's config file.  The seed orders the keys and places comment
    lines; the values, and so the run, do not depend on it."""
    rng = random.Random(seed)
    lines = [f"{k} = {v}" for k, v in entries.items()]
    rng.shuffle(lines)
    for _ in range(rng.randint(1, 3)):
        lines.insert(rng.randint(0, len(lines)), f"# perfbench seed {seed}")
    return "\n".join(lines) + "\n"


def read_csv(path: str, header: str) -> np.ndarray:
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    check(lines and lines[0] == header, f"{path}: header {lines[:1]} != {header!r}")
    return np.array([row.split(",") for row in lines[1:]], dtype=float)


def read_kv(path: str) -> dict:
    """`key: value` (report.txt) or `field,value` (compare CSV) lines."""
    out = {}
    with open(path) as fh:
        for line in fh.read().splitlines():
            key, sep, value = line.partition(": ") if ": " in line else line.partition(",")
            if sep:
                out[key] = value
    return out


def read_checkpoint(path: str):
    """Independent parser of the text checkpoint: ((W, b) per layer, values)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    check(lines[0] == "blasius-pinn-checkpoint v1", f"{path}: bad magic {lines[0]!r}")
    depth, width, _ = (int(tok) for tok in lines[1].split())
    values = np.array([float(s) for s in lines[2:]])
    dims = [1] + [width] * depth + [1]
    layers, off = [], 0
    for fi, fo in zip(dims[:-1], dims[1:]):
        w = values[off:off + fi * fo].reshape(fo, fi)
        off += fi * fo
        layers.append((w, values[off:off + fo]))
        off += fo
    check(off == values.size, f"{path}: {values.size} values for {off} parameters")
    return layers, values


def network_f012(layers, eta: np.ndarray, chunk: int = 8192) -> np.ndarray:
    """(f, f', f'') of a tanh MLP at eta, by forward-mode differentiation
    written apart from the program; evaluated in chunks to bound memory."""
    out = np.empty((3, eta.size))
    for lo in range(0, eta.size, chunk):
        x = eta[lo:lo + chunk, None]
        v, d1, d2 = x, np.ones_like(x), np.zeros_like(x)
        for k, (w, b) in enumerate(layers):
            z, z1, z2 = v @ w.T + b, d1 @ w.T, d2 @ w.T
            if k < len(layers) - 1:
                t = np.tanh(z)
                s = 1.0 - t * t
                v, d1, d2 = t, s * z1, s * z2 - 2.0 * t * s * z1 * z1
            else:
                v, d1, d2 = z, z1, z2
        out[:, lo:lo + chunk] = v[:, 0], d1[:, 0], d2[:, 0]
    return out


def eta99(eta: np.ndarray, fp: np.ndarray) -> float:
    """First eta where f' reaches 0.99, linear between nodes, as the program
    defines it."""
    i = int(np.nonzero(fp >= 0.99)[0][0])
    return float(eta[i - 1] + (0.99 - fp[i - 1]) / (fp[i] - fp[i - 1]) * (eta[i] - eta[i - 1]))


class Recorder:
    """Time and evaluation count at which an error measure first reaches each
    tolerance, from the start of the current round: the total loss of each
    `optim.loss_and_grad` call, or |f''(0) - literature value| of each
    `cli.shoot` result.  One float comparison per loss evaluation."""

    def __init__(self):
        self.begin()

    def begin(self) -> None:
        self.t0 = time.perf_counter()
        self.evals = 0
        self.reached: dict = {}
        self._next = TOLERANCES[0]

    def _reach(self, err: float) -> None:
        now = time.perf_counter() - self.t0
        for tol in TOLERANCES:
            if tol not in self.reached and err <= tol:
                self.reached[tol] = (now, self.evals)
        pending = [tol for tol in TOLERANCES if tol not in self.reached]
        self._next = pending[0] if pending else -1.0

    def record_loss(self, optim) -> None:
        loss_and_grad = optim.loss_and_grad

        def recorded_loss_and_grad(*args, **kwargs):
            res = loss_and_grad(*args, **kwargs)
            self.evals += 1
            if res.loss.total <= self._next:
                self._reach(res.loss.total)
            return res

        optim.loss_and_grad = recorded_loss_and_grad

    def record_slope(self, cli, literature_s: float) -> None:
        shoot = cli.shoot

        def recorded_shoot(*args, **kwargs):
            res = shoot(*args, **kwargs)
            self._reach(abs(res.s_star - literature_s))
            return res

        cli.shoot = recorded_shoot


class Bench:
    def __init__(self, args, ref, bp):
        self.args, self.ref, self.bp = args, ref, bp
        self.recorder = Recorder()
        if args.workload == "oracle":
            self.recorder.record_slope(bp.cli, ref.LITERATURE_S)
        else:
            self.recorder.record_loss(bp.optim)
        self.tracer = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.work = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)

    # -- operations ---------------------------------------------------------

    def _op(self, name, fn, *args):
        """One operation, timed; returns (result or None on failure, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.span(name, fn, *args)
            else:
                result = fn(*args)
        except Exception:
            self.failed += 1
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def cli(self, argv):
        """CLI run in this process; returns (stdout or None on failure, seconds)."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.bp.cli.main(argv)

        code, dt = self._op("cli.main", call)
        if code is None:
            return None, dt
        if code != 0:
            self.failed += 1
            print(f"blasius-pinn {' '.join(argv)} exited {code}: {err.getvalue()}",
                  file=sys.stderr)
            return None, dt
        return out.getvalue(), dt

    def verify(self, fn, *args) -> None:
        try:
            fn(*args)
        except (CheckFailed, OSError, ValueError, IndexError, KeyError, ET.ParseError) as err:
            self.problems.append(f"{type(err).__name__}: {err}")
            print(f"check failed: {err}", file=sys.stderr)

    def write_config(self, name: str, entries: dict) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w") as fh:
            fh.write(config_text(self.args.seed, entries))
        return path

    def startup_seconds(self, config_path: str) -> float:
        """Median wall time of a fresh interpreter that imports the CLI and
        parses the config, as each CLI invocation does before its work."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from blasius_pinn.cli import load_config; load_config(sys.argv[2])")
        times = []
        for _ in range(STARTUPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code, SRC, config_path],
                           check=True, timeout=120)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    # -- train_compare ------------------------------------------------------

    def train_compare_setup(self):
        train_cfg = self.write_config("train.cfg", {
            "mode": "train", "network.depth": 2, "network.width": 100,
            "network.seed": TRAIN_NET_SEED, "grid.eta0": 0, "grid.eta_m": 8,
            "grid.n": 100})
        # relative paths resolve against --out, where train wrote its checkpoint
        compare_cfg = self.write_config("compare.cfg", {
            "mode": "compare", "oracle.h": ORACLE_H, "oracle.eta_max": 8,
            "paths.checkpoint_in": "checkpoint.txt", "paths.csv_out": "compare.csv"})
        return train_cfg, compare_cfg

    def train_compare_round(self, train_cfg: str, compare_cfg: str) -> dict:
        out_dir = os.path.join(self.work, "net")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.recorder.begin()
        out, wall = self.cli(["train", "--config", train_cfg, "--out", out_dir])
        reached = dict(self.recorder.reached)
        if out is not None:
            compared, dt = self.cli(["compare", "--config", compare_cfg, "--out", out_dir])
            wall += dt
            self.verify(self.check_train, out_dir)
            if compared is not None:
                self.verify(self.check_compare, out_dir)
        return {"wall": wall, "reached": reached}

    def check_train(self, out_dir: str) -> None:
        report = read_kv(os.path.join(out_dir, "report.txt"))
        best = float(report["best_loss"])
        check(best <= 1e-5, f"train: best loss {best:.3g} > 1e-5")
        table = read_csv(os.path.join(out_dir, "solution.csv"), "eta,f,fp,fpp,residual")
        eta = np.linspace(0.0, 8.0, 100)
        check(table.shape == (100, 5) and np.array_equal(table[:, 0], eta),
              "train: solution.csv is not tabulated on the 100-point grid")
        exact = self.ref.at8(eta)
        err_f = np.abs(table[:, 1] - exact[0]).max()
        err_fp = np.abs(table[:, 2] - exact[1]).max()
        check(err_f <= 5e-3 and err_fp <= 5e-3,
              f"train: |f - ref| = {err_f:.3g}, |f' - ref| = {err_fp:.3g} > 5e-3")
        wall = table[0, 3]
        check(abs(wall - self.ref.LITERATURE_S) <= 2e-3,
              f"train: f''(0) = {wall!r} not within 2e-3 of {self.ref.LITERATURE_S}")
        # the checkpoint: the program reloads exactly what an independent
        # parser reads, writes it back byte for byte, and the CSV holds this
        # network's values
        path = os.path.join(out_dir, "checkpoint.txt")
        layers, values = read_checkpoint(path)
        net, p = self.bp.network.load_checkpoint(path)
        check(np.array_equal(p.values, values), "train: checkpoint does not reload exactly")
        resaved = os.path.join(out_dir, "resaved.txt")
        self.bp.network.save_checkpoint(resaved, net, p)
        with open(path, "rb") as a, open(resaved, "rb") as b:
            check(a.read() == b.read(), "train: checkpoint does not round-trip byte for byte")
        mine = network_f012(layers, eta)
        gap = np.abs(mine - table[:, 1:4].T).max()
        check(gap <= 1e-10, f"train: solution.csv differs from the checkpoint by {gap:.3g}")

    def check_compare(self, out_dir: str) -> None:
        """The reported errors against errors of the checkpointed network
        that the benchmark computes alone, on the oracle's nodes."""
        layers, _ = read_checkpoint(os.path.join(out_dir, "checkpoint.txt"))
        eta = np.arange(round(8.0 / ORACLE_H) + 1) * ORACLE_H
        pinn = network_f012(layers, eta)
        exact = self.ref.at8(eta)
        err = np.abs(pinn - exact)
        expected = {
            "max_abs_err_f": err[0].max(), "max_abs_err_fp": err[1].max(),
            "max_abs_err_fpp": err[2].max(),
            "rms_err_f": float(np.sqrt(np.mean(err[0] ** 2))),
            "wall_curvature_pinn": pinn[2, 0], "wall_curvature_oracle": self.ref.at8.s,
            "eta99_pinn": eta99(eta, pinn[1]), "eta99_oracle": eta99(eta, exact[1]),
        }
        got = {k: float(v) for k, v in read_kv(os.path.join(out_dir, "compare.csv")).items()
               if k != "field"}
        check(got.keys() == expected.keys(), f"compare: fields {sorted(got)}")
        for key, want in expected.items():
            check(abs(got[key] - want) <= 1e-8 + 1e-6 * abs(want),
                  f"compare: {key} = {got[key]!r}, the reference gives {want!r}")
        check(abs(got["eta99_pinn"] - expected["eta99_oracle"]) <= 0.01,
              f"compare: eta99 {got['eta99_pinn']!r} not within 0.01 of "
              f"{expected['eta99_oracle']!r}")

    # -- oracle -------------------------------------------------------------

    def oracle_setup(self):
        cfgs = {}
        for eta_max in (8, 10):
            cfgs[eta_max] = self.write_config(f"oracle{eta_max}.cfg", {
                "mode": "solve-oracle", "oracle.h": ORACLE_H, "oracle.eta_max": eta_max,
                "paths.csv_out": "solution.csv", "paths.plot_out": "solution.svg"})
        return cfgs

    def oracle_round(self, cfgs: dict) -> dict:
        wall = 0.0
        self.recorder.begin()
        dirs = {}
        for eta_max, cfg in cfgs.items():
            dirs[eta_max] = os.path.join(self.work, f"oracle{eta_max}")
            shutil.rmtree(dirs[eta_max], ignore_errors=True)
            out, dt = self.cli(["solve-oracle", "--config", cfg, "--out", dirs[eta_max]])
            wall += dt
            if out is None:
                return {"wall": wall, "reached": dict(self.recorder.reached)}
        with open(os.path.join(dirs[10], "solution.csv")) as fh:
            s10 = float(fh.readlines()[1].split(",")[3])
        blowup_eta, dt = self._op("oracle.blowup", self.bp.oracle.backward_blowup, s10, BLOWUP_H)
        wall += dt
        reached = dict(self.recorder.reached)
        for eta_max, d in dirs.items():
            self.verify(self.check_oracle_outputs, eta_max, d)
        if blowup_eta is not None:
            self.verify(self.check_blowup, blowup_eta)
        return {"wall": wall, "reached": reached}

    def check_oracle_outputs(self, eta_max: int, out_dir: str) -> None:
        prof = self.ref.at8 if eta_max == 8 else self.ref.at10
        table = read_csv(os.path.join(out_dir, "solution.csv"), "eta,f,fp,fpp,residual")
        n = round(eta_max / ORACLE_H)
        check(table.shape == (n + 1, 5), f"oracle {eta_max}: table shape {table.shape}")
        check(np.array_equal(table[:, 0], np.arange(n + 1) * ORACLE_H),
              f"oracle {eta_max}: eta column is not i * h")
        s = table[0, 3]
        check(abs(s - prof.s) <= 1e-8, f"oracle {eta_max}: s* = {s!r}, reference {prof.s!r}")
        gap = np.abs(table[:, 1:4].T - prof(table[:, 0])).max()
        check(gap <= 1e-8, f"oracle {eta_max}: table differs from the reference by {gap:.3g}")
        check(not table[:, 4].any(), f"oracle {eta_max}: residual column is not zero")
        svg = ET.parse(os.path.join(out_dir, "solution.svg")).getroot()
        lines = [el for el in svg.iter() if el.tag.endswith("polyline")]
        check(len(lines) == 3, f"oracle {eta_max}: SVG has {len(lines)} curves, not 3")
        for el in lines:
            pts = el.get("points").split()
            check(len(pts) == n + 1, f"oracle {eta_max}: SVG curve has {len(pts)} points")
            float(pts[-1].split(",")[1])

    def check_blowup(self, eta: float) -> None:
        check(abs(eta - self.ref.LITERATURE_BLOWUP) <= 1e-3,
              f"oracle: blow-up at {eta!r}, not within 1e-3 of {self.ref.LITERATURE_BLOWUP}")
        check(abs(eta - self.ref.blowup) <= 2 * BLOWUP_H,
              f"oracle: blow-up at {eta!r}, reference {self.ref.blowup!r}")

    # -- rounds -------------------------------------------------------------

    def prepare(self):
        """Set-up: returns (setup_s, the round function).  setup_s is the
        median CLI start-up with the workload's first config."""
        if self.args.workload == "train_compare":
            train_cfg, compare_cfg = self.train_compare_setup()
            return self.startup_seconds(train_cfg), \
                (lambda: self.train_compare_round(train_cfg, compare_cfg))
        cfgs = self.oracle_setup()
        return self.startup_seconds(cfgs[8]), (lambda: self.oracle_round(cfgs))

    def rounds(self, one_round, seconds: float, count: int | None = None) -> list:
        """Whole rounds until `seconds` have passed, or `count` rounds."""
        done = []
        t_end = time.perf_counter() + seconds
        while True:
            if self.tracer is not None:
                self.tracer.run_id = len(done)
            done.append(one_round())
            reached = {f"{tol:g}": round(v[0], 3) for tol, v in done[-1]["reached"].items()}
            print(f"round {len(done)}: wall {done[-1]['wall']:.3f} s, reached {reached}",
                  file=sys.stderr)
            if (len(done) == count) if count else time.perf_counter() >= t_end:
                return done


def time_to(results: list, tol: float) -> float:
    """Median over rounds; a round that never reaches tol counts its whole
    wall time (the answer was not available before the round ended)."""
    vals = []
    for r in results:
        if tol in r["reached"]:
            vals.append(r["reached"][tol][0])
        else:
            print(f"warning: a round ended before reaching {tol:g}", file=sys.stderr)
            vals.append(r["wall"])
    return statistics.median(vals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train_compare", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blasius_pinn", "__init__.py")):
        print(f"error: no blasius_pinn package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import reference   # noqa: E402  (gates itself on the literature values)
    import spans       # noqa: E402

    ref = reference.Reference()
    import blasius_pinn.cli  # noqa: E402  (loads every module of the package)
    bench = Bench(args, ref, blasius_pinn)
    try:
        setup_s, one_round = bench.prepare()
        # a traced run splits its length between an untraced and a traced
        # phase of as many rounds, so that it takes as long as an untraced run
        untraced = bench.rounds(one_round, args.seconds / (2 if args.trace else 1))
        if args.trace:
            bench.tracer = spans.Tracer()
            spans.install(bench.tracer)
            traced = bench.rounds(one_round, 0.0, len(untraced))
            bench.tracer.unwrap_all()
            bench.tracer.dump(os.path.join(OUT, f"trace-{args.workload}.json"))
            evals_to = {}
            if args.workload == "train_compare":
                evals_to = {tol: statistics.median(r["reached"][tol][1] for r in traced)
                            for tol in TOLERANCES if all(tol in r["reached"] for r in traced)}
            values = spans.layer_metrics(
                bench.tracer, len(traced), statistics.mean(r["wall"] for r in traced),
                statistics.mean(r["wall"] for r in untraced), evals_to)
            units = spans.LAYER_METRICS
        else:
            values = {
                "setup_s": setup_s, "wall_s": statistics.median(r["wall"] for r in untraced),
                "time_to_1e-5_s": time_to(untraced, 1e-5),
                "time_to_1e-8_s": time_to(untraced, 1e-8),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"{k:32s} {m['value']:.6g} {m['unit']}")
    print(f"environment: kernels {blasius_pinn.kernels.backend_name()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs, OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset (OpenBLAS uses one per CPU)')}")
    print(f"{'operations attempted':32s} {bench.attempted}")
    print(f"{'operations failed':32s} {bench.failed}")
    for problem in bench.problems:
        print(f"incorrect: {problem}")
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
