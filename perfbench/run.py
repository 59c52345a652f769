"""Benchmark metd end to end, or layer by layer with ``--trace 1``.

Usage, from the root of a metd checkout:

    python3 perfbench/run.py --workload train-default --seed 7 --seconds 10 --trace 0

Workloads: train-default, eval-clips, fdcheck, compare-baselines, or
``all`` to run each in turn.  The run re-executes itself in a worker
process with BLAS pinned to one thread and a fixed hash seed, sets the
workload up from the seed (several times, to time set-up), and then
issues the workload's ``metd`` commands back to back (a closed loop with
one client) until ``--seconds`` have passed.  Each command is its own
process, so its wall time and peak memory are what a user of the
command line sees.  The commands and the host-speed probe (probe.py)
share one processor; the reported times are scaled with the probe to
the host's reference speed, and the raw times are printed too.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced and
one traced iteration and reports the per-layer metrics instead.  The
exit code is 0 when every check passed, 1 when a check failed, and 2
when the run could not be made (for example outside a metd checkout).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKER_FLAG = "PERFBENCH_WORKER"
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# A run must end within 180 s; iterations stop being started once the
# next one would not finish before this.
RUN_BUDGET_S = 165.0
# Set-up is repeated at least SETUP_REPEATS times and until it has taken
# SETUP_SECONDS, so that a set-up of milliseconds still has a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
PROBE_START_S = 30.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env[WORKER_FLAG] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_pinned(argv) -> int:
    """Re-run this script as the pinned single-threaded worker."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv], env=pinned_env())
    try:
        return proc.wait(timeout=RUN_BUDGET_S + 12)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: the run did not finish in time", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if not (SRC / "metd" / "__init__.py").is_file():
        print(f"error: no metd sources at {SRC}; run from a metd checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = []
        for name in workloads.WORKLOADS:
            sub = [a if a != "all" else name for a in argv]
            codes.append(run_pinned(sub))
        return max(codes)
    if os.environ.get(WORKER_FLAG) != "1":
        return run_pinned(argv)
    return Worker(args).run()


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    sha, dirty = "unknown", "unknown"
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(
            git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True
        )
        if head.returncode == 0 and status.returncode == 0:
            sha, dirty = head.stdout.strip(), str(bool(status.stdout.strip())).lower()
    return {
        "sha": sha,
        "src_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "seed": seed,
    }


class HostProbe:
    """The probe.py process and the kernel timings it has written."""

    def __init__(self, directory: Path, env: dict):
        self.path = directory / "probe.txt"
        command = [sys.executable, str(BENCH_DIR / "probe.py"), str(self.path)]
        self.samples = []
        self.offset = 0
        self.proc = subprocess.Popen(command, env=env)
        deadline = time.monotonic() + PROBE_START_S
        while not self.samples:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the host-speed probe did not start")
            time.sleep(0.05)
            self.read()

    def read(self):
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            data = fh.read()
        complete = data[: data.rfind(b"\n") + 1]
        self.offset += len(complete)
        for line in complete.decode().splitlines():
            self.samples.append(tuple(float(x) for x in line.split()))

    def factor(self, start: float, end: float) -> float:
        self.read()
        return probe.host_factor(self.samples, start, end)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


class Worker:
    """One workload run inside the pinned process."""

    def __init__(self, args):
        import metd
        import metd.cli  # noqa: F401  imports every module the API needs

        if Path(metd.__file__).resolve().parent != SRC / "metd":
            raise RuntimeError(f"imported metd from {metd.__file__}, not from {SRC}")
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload](metd, args.seed, args.smoke)
        self.env = pinned_env()
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S
        self.work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.op_count = 0
        # The metd commands and the host-speed probe inherit this pin to
        # one processor, so that the probe measures the speed they get.
        cpus = sorted(os.sched_getaffinity(0))
        self.nproc = len(cpus)
        os.sched_setaffinity(0, {cpus[0]})
        self.probe = None

    def run_op(self, op, directory: Path, traced: bool = False):
        """Run one metd command in its own process; time it and read its peak RSS."""
        self.op_count += 1
        out = directory / f"op{self.op_count}.out"
        err = directory / f"op{self.op_count}.err"
        stats_path = directory / f"op{self.op_count}.stats.json"
        if traced:
            command = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(stats_path), *op.args]
        else:
            command = [sys.executable, "-m", "metd", *op.args]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            started = time.monotonic()
            proc = subprocess.Popen(command, cwd=directory, env=self.env, stdout=fo, stderr=fe)
            timer = threading.Timer(max(1.0, self.deadline + 10 - started), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stats = None
        if traced and stats_path.exists():
            stats = json.loads(stats_path.read_text())
            stats_path.unlink()
        result = workloads.OpResult(
            op=op,
            code=proc.returncode,
            wall=ended - started,
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu=usage.ru_utime + usage.ru_stime,
            stdout=out.read_text(encoding="utf-8"),
            stderr=err.read_text(encoding="utf-8"),
            stats=stats,
            host_factor=self.probe.factor(started, ended),
        )
        out.unlink()
        err.unlink()
        return result

    def setup(self, repeats: int, min_seconds: float, tracer=None) -> list:
        """Set up ``repeats`` times and for ``min_seconds``; keep the last inputs.

        Returns the raw and the host-speed adjusted time of each set-up.
        """
        times, adjusted = [], []
        rep = 0
        while True:
            directory = self.work / f"setup{rep}"
            directory.mkdir(parents=True)
            installed = tracing.install(tracer) if tracer is not None else None
            try:
                started = time.monotonic()
                self.workload.setup(directory, self.run_op)
                ended = time.monotonic()
            finally:
                if installed is not None:
                    installed.restore()
            times.append(ended - started)
            adjusted.append(times[-1] / self.probe.factor(started, ended))
            rep += 1
            if rep >= SETUP_MAX_REPEATS or (rep >= repeats and sum(times) >= min_seconds):
                break
            shutil.rmtree(directory)
        self.inputs = directory
        return times, adjusted

    def iterate(self, index: int, traced: bool = False):
        ops = self.workload.ops(index)
        results = [self.run_op(op, self.inputs, traced) for op in ops]
        try:
            failures = self.workload.check(index, results)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            failures = [(0, f"could not check the outputs: {exc!r}")]
        return workloads.Iteration(results=results, failures=failures)

    def loop(self) -> list:
        iterations = []
        loop_started = time.monotonic()
        while True:
            iterations.append(self.iterate(len(iterations)))
            now = time.monotonic()
            if now - loop_started >= self.args.seconds or now + iterations[-1].raw_wall > self.deadline:
                break
        return iterations

    def controls(self, controls) -> list:
        failures = []
        for op, expected in controls:
            result = self.run_op(op, self.inputs)
            if result.code != expected:
                failures.append(f"{op.name} exited {result.code}, expected {expected}")
            else:
                failures.extend(f"{op.name}: {m}" for m in self.workload.check_control(result))
        return failures

    def run(self) -> int:
        args = self.args
        try:
            self.work.mkdir(parents=True)
            self.probe = HostProbe(self.work, self.env)
            if args.trace:
                tracer = tracing.Tracer()
                self.setup(1, 0.0, tracer)
                setup_stats = tracer.stats()
                iterations = [self.iterate(0), self.iterate(1, traced=True)]
            else:
                setup_times, setup_adjusted = self.setup(SETUP_REPEATS, SETUP_SECONDS)
                iterations = self.loop()
            controls = self.workload.control_ops()
            control_failures = self.controls(controls)
        finally:
            if self.probe is not None:
                self.probe.stop()
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass

        messages = [m for it in iterations for _, m in it.failures] + control_failures
        attempted = sum(len(it.results) for it in iterations) + len(controls)
        failed = sum(len({pos for pos, _ in it.failures}) for it in iterations) + len(control_failures)
        env = environment(args.seed, self.nproc)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        print(f"iterations={len(iterations)} attempted={attempted} failed={failed}")
        print("iteration_wall_s " + " ".join(f"{it.raw_wall:.4f}" for it in iterations))
        print("iteration_adjusted_s " + " ".join(f"{it.wall:.4f}" for it in iterations))
        print(
            "host_factor "
            + " ".join(f"{r.host_factor:.4f}" for it in iterations for r in it.results)
        )
        print("iteration_cpu_s " + " ".join(f"{sum(r.cpu for r in it.results):.4f}" for it in iterations))
        for message in messages:
            print(f"check failed: {message}")
        for gate in self.workload.gates():
            print(f"gate {gate}")

        if args.trace:
            merged = tracing.merge(
                [setup_stats] + [r.stats for r in iterations[1].results if r.stats is not None]
            )
            units = sum(r.op.units for r in iterations[1].results if r.op.name == "eval")
            overhead = iterations[1].wall / iterations[0].wall
            metrics = tracing.per_layer_metrics(merged, units, overhead)
            missing = tracing.missing_calls(merged, self.workload.EXPECTED_CALLS)
            if missing:
                print(
                    f"error: traced bindings recorded no calls on {args.workload}: "
                    + ", ".join(missing),
                    file=sys.stderr,
                )
                return 2
        else:
            metrics = {
                "setup_s": (statistics.median(setup_adjusted), "s"),
                "wall_s": (statistics.median(it.wall for it in iterations), "s"),
                "peak_rss_mb": (max(r.rss_mb for it in iterations for r in it.results), "MB"),
            }
            extra = dict(self.workload.report(iterations)) if not failed else {}
            extra["failed_ratio"] = (failed / attempted, "ratio")
            extra["raw_wall_s"] = (statistics.median(it.raw_wall for it in iterations), "s")
            extra["raw_setup_s"] = (statistics.median(setup_times), "s")
            for name, (value, unit) in extra.items():
                print(f"workload-metric {name} = {value:.6g} {unit}")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
