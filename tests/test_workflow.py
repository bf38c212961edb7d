"""The CI workflow names only paths that exist, and its tools run."""
import re
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
# a top-level directory of the repo, alone or with a path under it
REPO_PATH = re.compile(r"(?<![\w/$.-])(?:benchmarks|scenarios|src|tests|tools)"
                       r"(?:/[\w.*-]+)*(?![\w/-])")


def test_every_path_a_workflow_step_runs_exists():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    named = {path for job in workflow["jobs"].values() for step in job["steps"]
             for path in REPO_PATH.findall(step.get("run", ""))}
    assert {"tools/compare_to_base.py", "benchmarks/run.py", "scenarios"} <= named, named
    assert [path for path in sorted(named) if not any(ROOT.glob(path))] == []


def test_the_size_summary_counts_this_tree():
    child = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_to_base.py"), "--sizes"],
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    modules = sorted((ROOT / "src" / "fjpower").glob("*.py"))

    def wc(pattern):  # the count on the last line of `wc -l PATTERN`, the total
        done = subprocess.run(f"wc -l {pattern}", shell=True, cwd=ROOT, capture_output=True,
                              text=True, check=True)
        return int(done.stdout.splitlines()[-1].split()[0])

    assert lines[:3] == [f"{tree} lines: {wc(pattern)}" for tree, pattern in (
        ("src", "src/fjpower/*.py"), ("tests", "tests/*.py"), ("tools", "tools/*.py"))]
    assert re.fullmatch(r"public names: [1-9]\d*", lines[3]), lines[3]
    assert re.fullmatch(r"parameters with defaults: \d+", lines[4]), lines[4]
    assert [line.split()[0] for line in lines[6:-2]] == [p.name for p in modules]
    assert lines[-1].startswith("PyYAML ")
