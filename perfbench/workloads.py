"""The four workloads: their inputs, commands, checks and metrics.

Every workload builds its inputs from the workload seed through metd's
public API, writes them to disk, and then drives the ``metd`` command
line.  metd itself only ever sees the generated files and configs.

A workload defines:

- ``setup(directory, run_op)``: write the inputs (timed as ``setup_s``);
- ``ops(index)``: the commands of one iteration of the closed loop;
- ``check(index, results)``: (op position, message) for each failed check;
- ``control_ops()``: untimed commands run once per run, with the exit
  code each must return (negative controls);
- ``report(iterations)``: the workload-specific figures of a run;
- ``gates()``: quality targets that are reported, not counted as failures;
- ``EXPECTED_CALLS``: span names the traced run must see called.
"""

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from tracing import STRATEGY_KINDS as BASELINES

# The model and stage settings of configs/synthetic.cfg, the paper's
# desk-scale run.  Kept here so that edits to the shipped config do not
# silently change the workload.
SYNTHETIC_SETTINGS = """\
n_classes = 3
n_subclasses = 2
n_tokens = 4
token_dim = 16
embed_dim = 16
feature_dim = 16
context_length = 4
encoder_kind = identity-mean
residual_adapter = true
temperature = 0.055
stage1_lr = 0.01
stage1_weight_decay = 0
stage1_optimizer = adaptive-moments-decoupled-decay
stage1_schedule = constant
stage1_batch_size = 32
stage2_lr = 5e-6
stage2_weight_decay = 0.1
stage2_optimizer = adaptive-moments-decoupled-decay
stage2_schedule = cosine
stage2_batch_size = 32
"""

# Epochs each baseline trains for with the default probe settings and
# the synthetic stage-1 epochs (learnable-context uses stage 1's).
BASELINE_EPOCHS = {"zero-shot-fixed": 0, "linear-probe": 40, "full-finetune": 40, "learnable-context": 30}

WAR_GATE = 0.95
PURITY_GATE = 0.9


@dataclass
class Op:
    """One ``metd`` command; ``units`` is what a ``metd eval`` scores."""

    name: str
    args: list
    units: int = 0


@dataclass
class OpResult:
    op: Op
    code: int
    wall: float
    rss_mb: float
    cpu: float
    stdout: str
    stderr: str
    stats: dict | None = None
    host_factor: float = 1.0

    @property
    def adjusted_wall(self) -> float:
        """Wall time at the reference host speed (see probe.py)."""
        return self.wall / self.host_factor


@dataclass
class Iteration:
    results: list
    failures: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Wall time of the iteration at the reference host speed."""
        return sum(r.adjusted_wall for r in self.results)

    @property
    def raw_wall(self) -> float:
        return sum(r.wall for r in self.results)

    def op_wall(self, name: str) -> float:
        return sum(r.adjusted_wall for r in self.results if r.op.name == name)


def parse_eval_report(text: str) -> dict:
    """Confusion matrix and key=value fields of a ``metd eval`` report."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("confusion"):
        raise ValueError("no confusion matrix in eval output")
    rows = []
    fields = {}
    for line in lines[1:]:
        if "=" in line:
            key, value = line.split("=", 1)
            fields[key] = value
        elif line.strip():
            rows.append([int(x) for x in line.split("\t")])
    fields["confusion"] = np.array(rows, dtype=np.int64)
    return fields


def median_of(iterations, fn) -> float:
    return statistics.median(fn(it) for it in iterations)


class Workload:
    name = ""
    EXPECTED_CALLS = ()

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        self.seed = seed
        self.smoke = smoke
        self.dir = None

    def setup(self, directory: Path, run_op):
        raise NotImplementedError

    def ops(self, index: int) -> list:
        raise NotImplementedError

    def check(self, index: int, results) -> list:
        raise NotImplementedError

    def control_ops(self) -> list:
        return []

    def report(self, iterations) -> dict:
        return {}

    def gates(self) -> list:
        """Quality targets, reported but not counted as failed operations."""
        return []

    def _expect_code(self, results) -> list:
        return [
            (pos, f"{r.op.name} exited {r.code}: {r.stderr.strip()[-300:]}")
            for pos, r in enumerate(results)
            if r.code != 0
        ]


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8", newline="\n")


def _save_splits(api, directory: Path, train, test):
    data = directory / "data"
    data.mkdir()
    api.data.save_dataset(train, str(data / "train.tsv"))
    api.data.save_dataset(test, str(data / "test.tsv"))
    return data


class TrainDefault(Workload):
    """``metd train`` with the synthetic.cfg settings, then ``metd eval``."""

    name = "train-default"
    EXPECTED_CALLS = (
        "cli.train", "cli.eval", "config.parse_config", "data.load_dataset",
        "data.save_dataset", "harness.default_benchmark",
        "model.save_checkpoint", "model.load_checkpoint", "model.bank_embeddings",
        "model.encode_image", "model.adapter_gradients",
        "numerics.as_vector", "numerics.cosine_similarity", "numerics.log_sum_exp",
        "numerics.stable_softmax", "losses.similarity_grid", "losses.total_loss",
        "losses.loss_gradients", "losses.modulating_factor",
        "training.run_stage1", "training.run_stage2", "training.optimizer_step",
        "inference.evaluate", "inference.subclass_report", "inference.predict",
        "inference.unit_embedding",
    )

    def setup(self, directory, run_op):
        train, test = self.api.harness.default_benchmark(self.seed)
        self.data = _save_splits(self.api, directory, train, test)
        self.units = len(train.units())
        self.test_units = len(test.units())
        self.epochs = (2, 1) if self.smoke else (30, 30)
        _write(
            directory / "run.cfg",
            SYNTHETIC_SETTINGS
            + f"seed = {self.seed}\nstage1_epochs = {self.epochs[0]}\n"
            f"stage2_epochs = {self.epochs[1]}\n",
        )
        self.dir = directory
        self.reference = None

    def ops(self, index):
        ckpt = f"it{index}.ckpt"
        return [
            Op("train", ["train", "--config", "run.cfg", str(self.data), ckpt]),
            Op("eval", ["eval", ckpt, str(self.data / "test.tsv")], units=self.test_units),
        ]

    def check(self, index, results):
        failures = self._expect_code(results)
        if failures:
            return failures
        ckpt = self.dir / f"it{index}.ckpt"
        log = self.dir / f"it{index}.ckpt.log"
        outputs = (ckpt.read_bytes(), results[1].stdout)
        if self.reference is not None:
            if outputs[0] != self.reference[0]:
                failures.append((0, "checkpoint bytes differ from the first iteration"))
            if outputs[1] != self.reference[1]:
                failures.append((1, "eval report differs from the first iteration"))
            ckpt.unlink()
            log.unlink()
            return failures
        self.reference = outputs
        self.log_text = log.read_text(encoding="utf-8")
        self.eval = parse_eval_report(results[1].stdout)
        losses = [float(x) for line in log_lines(self.log_text) for x in line.split("\t")[1:4]]
        if not losses or not all(math.isfinite(x) for x in losses):
            failures.append((0, "a logged loss is not finite"))
        return failures

    def gates(self):
        # The acceptance gate is defined for the 30+30 epoch run at seed 7.
        # At other seeds the method can miss it (seed 25 reaches WAR
        # 0.9467), so it is reported here and not counted as a failure.
        if self.smoke or self.reference is None:
            return []
        war = float(self.eval["war"])
        purity = float(self.eval["subclass_purity"])
        return [
            f"test_war {war:.6f} >= {WAR_GATE}: {'PASS' if war >= WAR_GATE else 'FAIL'}",
            f"subclass_purity {purity:.6f} >= {PURITY_GATE}: {'PASS' if purity >= PURITY_GATE else 'FAIL'}",
        ]

    def report(self, iterations):
        samples = self.units * sum(self.epochs)
        last_total = float(log_lines(self.log_text)[-1].split("\t")[3])
        return {
            "train_samples_per_s": (samples / median_of(iterations, lambda it: it.op_wall("train")), "samples/s"),
            "test_war": (float(self.eval["war"]), "ratio"),
            "test_uar": (float(self.eval["uar"]), "ratio"),
            "subclass_purity": (float(self.eval["subclass_purity"]), "ratio"),
            "final_train_loss": (last_total, "nats"),
        }


def _by_subcluster(samples) -> list:
    """Samples grouped by (label, subcluster id), each group in file order."""
    groups = {}
    for sample in samples:
        groups.setdefault((sample.label, sample.subcluster_id), []).append(sample)
    return list(groups.values())


def log_lines(text: str) -> list:
    """Data rows of a ``<checkpoint>.log`` metrics log."""
    return [line for line in text.splitlines()[1:] if line]


class EvalClips(Workload):
    """``metd eval`` of a briefly trained checkpoint on held-out 8-frame clips."""

    name = "eval-clips"
    EXPECTED_CALLS = (
        "cli.eval", "data.load_dataset", "data.save_dataset",
        "data.generate_synthetic", "model.load_checkpoint", "model.bank_embeddings",
        "model.encode_image", "numerics.as_vector", "numerics.cosine_similarity",
        "inference.evaluate", "inference.subclass_report", "inference.predict",
        "inference.unit_embedding",
    )
    FRAMES = 8
    CLASSES, SUBCLASSES, DIM = 7, 3, 64

    def setup(self, directory, run_op):
        api = self.api
        # 80% of each subcluster becomes clips; 20% is the training pool.
        per_subcluster = 40 if self.smoke else 360
        train_per_subcluster = 4 if self.smoke else 7
        config = api.data.SynthConfig(
            n_classes=self.CLASSES,
            subclusters_per_class=self.SUBCLASSES,
            samples_per_subcluster=per_subcluster,
            feature_dim=self.DIM,
            sigma=0.3,
            inter_class_min_angle=45.0,
            intra_class_angle=90.0,
            seed=self.seed,
        )
        clip_pool, train_pool = api.data.generate_synthetic(config)
        self.clips, self.labels, rows = [], [], []
        for members in _by_subcluster(clip_pool.samples):
            for start in range(0, len(members) - self.FRAMES + 1, self.FRAMES):
                block = members[start : start + self.FRAMES]
                self.clips.append(np.vstack([s.features for s in block]))
                self.labels.append(block[0].label)
                rows.extend(
                    api.data.Sample(
                        features=s.features,
                        label=s.label,
                        sequence_id=len(self.clips),
                        subcluster_id=s.subcluster_id,
                    )
                    for s in block
                )
        clips = api.data.EmbeddingDataset(rows, self.DIM, self.CLASSES)
        api.data.save_dataset(clips, str(directory / "clips.tsv"))
        train_rows = [
            s for members in _by_subcluster(train_pool.samples) for s in members[:train_per_subcluster]
        ]
        (directory / "train").mkdir()
        api.data.save_dataset(
            api.data.EmbeddingDataset(train_rows, self.DIM, self.CLASSES),
            str(directory / "train" / "train.tsv"),
        )
        _write(
            directory / "train.cfg",
            f"n_classes = {self.CLASSES}\nn_subclasses = {self.SUBCLASSES}\nn_tokens = 4\n"
            f"token_dim = {self.DIM}\nembed_dim = {self.DIM}\nfeature_dim = {self.DIM}\n"
            "context_length = 4\nencoder_kind = identity-mean\nresidual_adapter = true\n"
            f"temperature = 0.055\nseed = {self.seed}\n"
            "stage1_epochs = 2\nstage1_batch_size = 32\n"
            "stage2_epochs = 2\nstage2_batch_size = 32\n",
        )
        trained = run_op(Op("train", ["train", "--config", "train.cfg", "train", "model.ckpt"]), directory)
        if trained.code != 0:
            raise RuntimeError(f"setup training failed: {trained.stderr.strip()[-300:]}")
        self.dir = directory
        self.first_output = None

    def ops(self, index):
        return [Op("eval", ["eval", "model.ckpt", "clips.tsv"], units=len(self.clips))]

    def check(self, index, results):
        failures = self._expect_code(results)
        if failures:
            return failures
        output = results[0].stdout
        if self.first_output is None:
            self.first_output = output
            self.eval = parse_eval_report(output)
            checkpoint = reference.read_checkpoint(self.dir / "model.ckpt")
            predictions = reference.predict_clips(checkpoint, self.clips)
            expected = reference.confusion(self.labels, predictions, self.CLASSES)
            if not np.array_equal(expected, self.eval["confusion"]):
                failures.append((0, "confusion matrix differs from the reference scorer"))
            if int(self.eval["units"]) != len(self.clips):
                failures.append((0, f"scored {self.eval['units']} units, expected {len(self.clips)}"))
        elif output != self.first_output:
            failures.append((0, "eval report differs from the first iteration"))
        return failures

    def report(self, iterations):
        return {
            "eval_units_per_s": (len(self.clips) / median_of(iterations, lambda it: it.wall), "units/s"),
            "test_war": (float(self.eval["war"]), "ratio"),
            "subclass_purity": (float(self.eval["subclass_purity"]), "ratio"),
        }


class FdCheck(Workload):
    """``metd fdcheck`` over enough random instances to make a long run."""

    name = "fdcheck"
    EXPECTED_CALLS = (
        "cli.fdcheck", "config.parse_config", "training.fd_check",
        "training.central_difference", "model.bank_embeddings", "model.encode_image",
        "model.adapter_gradients", "numerics.as_vector", "numerics.cosine_similarity",
        "numerics.log_sum_exp", "numerics.stable_softmax", "losses.similarity_grid",
        "losses.total_loss", "losses.loss_gradients", "losses.modulating_factor",
        "inference.unit_embedding",
    )
    # ``metd fdcheck`` checks the instances seeded start, start+1, ...
    # Their shapes are random, so a fixed instance count would make the
    # run length depend on the seed.  The workload instead fixes the work:
    # an instance costs about (entries checked) x (classes x subclasses
    # + 11) units, because every entry needs two loss evaluations and
    # each embeds and scores every descriptor.  The instance window is the
    # first one, starting at or after the workload seed, whose estimated
    # work lies within WORK_TOLERANCE of the target.
    WORK_UNITS = 160_000
    SMOKE_WORK_UNITS = 4_000
    WORK_TOLERANCE = 0.02

    def instance_work(self, seed: int) -> int:
        work = 0
        for stage in (1, 2):
            model, _, _ = self.api.training.random_fd_instance(seed=seed, stage=stage)
            if stage == 1:
                entries = model.bank.tokens.size
            else:
                entries = model.adapter.weight.size + model.adapter.bias.size
            work += entries * (model.n_classes * model.n_subclasses + 11)
        return work

    def window(self, target: int) -> tuple:
        """(first instance seed, instance count) of the instance window."""
        works = {}
        start = self.seed
        while True:
            work, count = 0, 0
            while work < target * (1 - self.WORK_TOLERANCE):
                if start + count not in works:
                    works[start + count] = self.instance_work(start + count)
                work += works[start + count]
                count += 1
            if work <= target * (1 + self.WORK_TOLERANCE):
                return start, count
            start += 1

    def setup(self, directory, run_op):
        start, self.instances = self.window(self.SMOKE_WORK_UNITS if self.smoke else self.WORK_UNITS)
        _write(directory / "fd.cfg", f"seed = {start}\nfdcheck_instances = {self.instances}\n")
        _write(
            directory / "corrupt.cfg",
            f"seed = {start}\nfdcheck_instances = 1\nfdcheck_corrupt = true\n",
        )
        self.first_output = None

    def ops(self, index):
        return [Op("fdcheck", ["fdcheck", "--config", "fd.cfg"])]

    def control_ops(self):
        return [(Op("fdcheck-corrupt", ["fdcheck", "--config", "corrupt.cfg"]), 1)]

    def check(self, index, results):
        failures = self._expect_code(results)
        if failures:
            return failures
        output = results[0].stdout
        if "fdcheck: PASS" not in output:
            failures.append((0, "fdcheck did not print PASS"))
        if self.first_output is None:
            self.first_output = output
        elif output != self.first_output:
            failures.append((0, "fdcheck output differs from the first iteration"))
        return failures

    def check_control(self, result) -> list:
        if "fdcheck: FAIL" not in result.stdout:
            return ["corrupted fdcheck did not print FAIL"]
        return []

    def report(self, iterations):
        entries = 0
        for line in self.first_output.splitlines():
            for part in line.split("\t"):
                if part.startswith("entries="):
                    entries += int(part.split("=")[1])
        worst = float(self.first_output.split("max_rel_err=")[-1].split(",")[0])
        return {
            "fd_entries_per_s": (entries / median_of(iterations, lambda it: it.wall), "entries/s"),
            "fd_max_rel_err": (worst, "ratio"),
            "fd_instances": (self.instances, "count"),
        }


class CompareBaselines(Workload):
    """``metd compare`` of the four baselines on the train-default data."""

    name = "compare-baselines"
    EXPECTED_CALLS = (
        "cli.compare", "config.parse_config", "data.load_dataset", "data.save_dataset",
        "harness.default_benchmark", "harness.run_strategy.zero-shot-fixed",
        "harness.run_strategy.linear-probe", "harness.run_strategy.full-finetune",
        "harness.run_strategy.learnable-context", "training.optimizer_step",
        "model.encode_image", "numerics.as_vector", "numerics.cosine_similarity",
        "numerics.stable_softmax", "inference.evaluate", "inference.predict",
        "inference.unit_embedding",
    )

    def setup(self, directory, run_op):
        train, test = self.api.harness.default_benchmark(self.seed)
        self.data = _save_splits(self.api, directory, train, test)
        self.units = len(train.units())
        self.epochs = {kind: 1 for kind in BASELINES} if self.smoke else BASELINE_EPOCHS
        _write(
            directory / "compare.cfg",
            SYNTHETIC_SETTINGS
            + f"seed = {self.seed}\nstage1_epochs = {self.epochs['learnable-context']}\n"
            f"probe_epochs = {self.epochs['linear-probe']}\n"
            f"strategies = {','.join(BASELINES)}\n",
        )
        self.first_rows = None

    def ops(self, index):
        return [Op("compare", ["compare", "--config", "compare.cfg", str(self.data)])]

    def check(self, index, results):
        failures = self._expect_code(results)
        if failures:
            return failures
        rows = {}
        for line in results[0].stdout.splitlines():
            if line.startswith("strategy="):
                fields = dict(part.split("=", 1) for part in line.split())
                rows[fields["strategy"]] = float(fields["war"])
        if sorted(rows) != sorted(BASELINES):
            failures.append((0, f"compare printed rows {sorted(rows)}"))
        elif not all(0.0 <= war <= 1.0 for war in rows.values()):
            failures.append((0, f"a war lies outside [0, 1]: {rows}"))
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            failures.append((0, "compare wars differ from the first iteration"))
        return failures

    def report(self, iterations):
        samples = self.units * sum(self.epochs.values())
        return {
            "train_samples_per_s": (samples / median_of(iterations, lambda it: it.wall), "samples/s"),
            "test_war": (statistics.fmean(self.first_rows.values()), "ratio"),
        }


WORKLOADS = {w.name: w for w in (TrainDefault, EvalClips, FdCheck, CompareBaselines)}
