"""tools/parity.py runs against this checkout and prints every digest."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_parity_prints_one_digest_per_case(tmp_path):
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py")],
                            cwd=tmp_path,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 68
    assert len({line.split(" ")[0] for line in lines}) == 68
    for line in lines:
        # each seeded CLI run reports its exit code; every other case a digest
        pattern = r"cli\.\w+\.exit 0" if ".exit " in line else r"\S+ [0-9a-f]{64}"
        assert re.fullmatch(pattern, line), line
