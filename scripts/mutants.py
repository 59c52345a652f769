#!/usr/bin/env python3
"""Mutation check: does Tier-1 fail when the method is wrong?

Each mutant below is one deliberate defect in ``src/metd``, written as an
exact source edit.  For each, the script copies the repository into a
temporary directory, applies the edit there and runs Tier-1 with ``-x``
against the copy; a failing run means the tests caught the defect
(killed), a passing one that they did not (survived).  The working tree
is only read.

Every edit must match its file exactly once.  If one does not (a
refactor moved or reworded the line), the script stops before running
anything and names the mutant, so the edit is updated with the code.  A
survivor is a finding about the tests: mend it with a test, never by
editing the mutant.

  python scripts/mutants.py              # the unmutated copy, then every mutant
  python scripts/mutants.py NAME ...     # only these mutants (names in MUTANTS)

Exit status: 0 if every mutant run was killed, 1 if any survived, 2 if
an edit does not match or the unmutated copy already fails.  Stdlib only;
not part of Tier-1.  Each run takes up to one Tier-1 run (about 35 s on
a 2-vCPU VM).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/metd, text to replace, replacement)
MUTANTS = (
    (
        "margin-takes-k-plus",
        "losses.py",
        "farthest = grid.values[rows, t].argmin(axis=-1)",
        "farthest = closest",
    ),
    (
        "fine-list-keeps-target-siblings",
        "losses.py",
        "fine[rows, t] = np.arange(k) == breakdown.closest_subclass[:, None]",
        "fine[rows, t] = np.arange(k) >= breakdown.closest_subclass[:, None]",
    ),
    (
        "counts-without-running-sum",
        "training.py",
        "    counts[:] = running[-1]\n"
        "    breakdown = losses.total_loss(grid, targets, running[rows, targets])\n",
        "    alone = (counts + assigned)[rows, targets]\n"
        "    counts[:] = running[-1]\n"
        "    breakdown = losses.total_loss(grid, targets, alone)\n",
    ),
    (
        "alpha-is-one",
        "losses.py",
        "alpha = modulating_factor(counts, closest)",
        "alpha = np.ones_like(modulating_factor(counts, closest))",
    ),
    (
        "adam-without-bias-correction-on-m",
        "training.py",
        "m_hat = m / (1.0 - ADAM_BETA1**t)",
        "m_hat = m",
    ),
    (
        "decay-after-the-gradient-step",
        "training.py",
        "        if weight_decay != 0.0:\n"
        "            param -= (learning_rate * weight_decay) * param\n"
        "        param -= update[span].reshape(shape)\n",
        "        param -= update[span].reshape(shape)\n"
        "        if weight_decay != 0.0:\n"
        "            param -= (learning_rate * weight_decay) * param\n",
    ),
    (
        "schedule-one-step-late",
        "training.py",
        "optimizer_step(params, grads, state, scheduled_lr(step), weight_decay)",
        "optimizer_step(params, grads, state, scheduled_lr(max(step - 1, 0)), weight_decay)",
    ),
    (
        "stage2-reuses-stage1-stream",
        "training.py",
        "stream = (STREAM_SHUFFLE, config.seed, number)",
        "stream = (STREAM_SHUFFLE, config.seed, 1)",
    ),
    (
        "k-plus-ties-to-the-highest-index",
        "losses.py",
        "return self.values.argmax(axis=-1)",
        "return (self.values.shape[-1] - 1) - self.values[..., ::-1].argmax(axis=-1)",
    ),
    (
        "batch-sum-not-mean",
        "training.py",
        "        n = len(rows)\n",
        "        n = 1\n",
    ),
    (
        "logits-without-temperature",
        "losses.py",
        "return self.values / self.temperature",
        "return self.values",
    ),
    (
        "adapter-without-residual",
        "model.py",
        "    if residual:\n        out = out + features\n",
        "    if False:\n        out = out + features\n",
    ),
    (
        "oversample-seed-off-by-one",
        "data.py",
        "rng = np.random.default_rng([STREAM_OVERSAMPLE, seed])",
        "rng = np.random.default_rng([STREAM_OVERSAMPLE, seed + 1])",
    ),
    (
        "context-norms-of-the-first-rows",
        "harness.py",
        "v, v_norms = pooled[batch], pooled_norms[batch]",
        "v, v_norms = pooled[batch], pooled_norms[: len(batch)]",
    ),
    (
        "purity-counts-units-without-id",
        "inference.py",
        "known = ids >= 0",
        "known = np.ones(ids.shape, dtype=bool)",
    ),
    (
        "purity-over-every-unit",
        "inference.py",
        "subclass_purity=matched / np.count_nonzero(known)",
        "subclass_purity=matched / labels.size",
    ),
    (
        "header-line-not-checked-for-utf8",
        "model.py",
        "if reason := _utf8_fault(first):",
        "if reason := None:",
    ),
    (
        "config-not-checked-for-utf8",
        "config.py",
        "if reason := _utf8_fault(line):",
        "if reason := None:",
    ),
    (
        "stage2-before-stage1",
        "harness.py",
        "    trace1 = run_stage1(model, fitted, config)\n"
        "    trace2 = run_stage2(model, fitted, config)\n",
        "    trace2 = run_stage2(model, fitted, config)\n"
        "    trace1 = run_stage1(model, fitted, config)\n",
    ),
    (
        "compare-skips-metd-zero-unit-check",
        "harness.py",
        "    if strategy.kind == METD:  # stage 1 scores each unit through the untrained adapter\n",
        "    if False:\n",
    ),
    (
        "probe-fits-at-stage1-lr",
        "harness.py",
        "batch_size=config.stage1_batch_size, lr=config.probe_lr, weight_decay=0.0,",
        "batch_size=config.stage1_batch_size, lr=config.stage1_lr, weight_decay=0.0,",
    ),
    (
        "fd-instance-draws-context-first",
        "training.py",
        "    tokens = rng.normal(size=(n_classes, n_subclasses, n_tokens, token_dim))\n"
        "    context = rng.normal(size=(context_length, token_dim))\n",
        "    context = rng.normal(size=(context_length, token_dim))\n"
        "    tokens = rng.normal(size=(n_classes, n_subclasses, n_tokens, token_dim))\n",
    ),
    (
        "compare-skips-oversample-check",
        "harness.py",
        "    if strategy.kind == METD and config.oversample:"
        "  # refused as train_metd would, before any fit\n",
        "    if False:\n",
    ),
    (
        "learnable-context-bank-without-context",
        "harness.py",
        "bank = DescriptorBank(names[:, None, None, :], context)",
        "bank = DescriptorBank(names[:, None, None, :], np.zeros_like(context))",
    ),
    (
        "fd-minus-probe-moved-by-plus-h",
        "training.py",
        "moved[:, entries, 1, entries] = matrices - h",
        "moved[:, entries, 1, entries] = matrices + h",
    ),
)

IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work", "*.egg-info"
)


def _check_edits(mutants) -> list[str]:
    """One problem line per mutant whose edit does not match its file exactly once."""
    problems = []
    for name, file, old, _ in mutants:
        found = (ROOT / "src" / "metd" / file).read_text(encoding="utf-8").count(old)
        if found != 1:
            problems.append(f"mutant {name}: its edit matches src/metd/{file} {found} times")
    return problems


def _tier1(copy: Path) -> tuple[bool, str]:
    """Run Tier-1 with -x in ``copy``: (passed, last line of its output)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = run.stdout.strip().splitlines()
    return run.returncode == 0, lines[-1] if lines else run.stderr.strip()[-200:]


def _run(name: str, edit) -> bool:
    """Tier-1 on a fresh copy with ``edit`` (file, old, new) applied, or none; True if it passed."""
    with tempfile.TemporaryDirectory(prefix="metd-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if edit is not None:
            file, old, new = edit
            path = copy / "src" / "metd" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        started = time.perf_counter()
        passed, last = _tier1(copy)
    print(f"{name:<36} {'passed' if passed else 'failed'} in {time.perf_counter() - started:5.1f} s"
          f"  ({last})", flush=True)
    return passed


def main(argv) -> int:
    unknown = sorted(set(argv) - {name for name, *_ in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    problems = _check_edits(chosen)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    if not _run("(unmutated)", None):
        print("Tier-1 fails without a mutant, so no mutant can be judged", file=sys.stderr)
        return 2
    survivors = [name for name, *edit in chosen if _run(name, edit)]
    for name, *_ in chosen:
        print(f"{name}: {'survived' if name in survivors else 'killed'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
