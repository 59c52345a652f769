"""The README's claims ledger: every test it cites exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATUSES = ("tested", "measured only", "reworded")


def _ledger_rows() -> list[list[str]]:
    """The cells of each row of the README's "Claims" table, header and rule excluded."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split(" | ") for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row] for row in rows[2:]]


def _test_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_test_the_claims_ledger_cites_exists():
    rows = _ledger_rows()
    assert len(rows) >= 6
    for claim, _, evidence, status in rows:
        assert any(word in status for word in STATUSES), claim
        cited = re.findall(r"`tests/(\w+\.py)::(test_\w+)`", evidence)
        assert cited or "tested" not in status, f"{claim}: tested, but cites no test"
        for file, name in cited:
            path = ROOT / "tests" / file
            assert path.is_file() and name in _test_names(path), f"{claim}: no {file}::{name}"
