"""Compare this tree with a git revision, or print this tree's sizes, as Markdown.

    python tools/compare_to_base.py REV      # REV: the base commit, e.g. HEAD~1
    python tools/compare_to_base.py --sizes

REV is checked out into a temporary git worktree, removed at the end.  Both
trees run the same `python -m fjpower.cli` calls from their own `src`: batches
of the bundled files (also with --seed 11) and of the benchmark's 85 seed-7
scenario_files inputs (all 10 modes and 4 output kinds), a batch of files
whose number lists hold what is no number (a null, text, a date, a list, a
whole number past the float range, a boolean, `.nan`, a null or short row of
C), `run` and `report` on each bundled file, `oracle` and every `--help`.
Their files, stdout, stderr and exit codes are compared byte for byte, so a
changed refusal text shows, then the public names, test ids and module sizes.
"""
import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

HEAD = Path(__file__).resolve().parents[1]

# a scenario with row 2 of C and the second entry of a left to fill in
NUMBER_FILE = ("name: {}\nnetwork:\n  C:\n    - [0.0, 1.0]\n    - {}\n  a: [0.5, {}]\n"
               "mode: perception_ra\ninitial:\n  p0: [0.5, 0.5]\n")
# file name -> (row 2 of C, a[2]): each puts one thing that is no number where numbers belong
HOSTILE_NUMBERS = {f"a_{kind}": ("[1.0, 0.0]", entry) for kind, entry in (
    ("null", "null"), ("string", "abc"), ("date", "2024-01-01"), ("list", "[0.5]"),
    ("big", "1" + "0" * 400), ("boolean", "no"), ("nan", ".nan"))}
HOSTILE_NUMBERS.update(C_null_row=("null", "0.5"), C_short_row=("[1.0]", "0.5"))

# the names `import fjpower` exports, submodules aside, one a line in sorted
# order, each callable with its signature, so a base/head diff shows API
# changes; then the count of parameters with defaults across those callables,
# the option count a change reports beside its public names
PUBLIC_SURFACE = """
import fjpower, inspect, types
defaulted = 0
for name in sorted(vars(fjpower)):
    obj = getattr(fjpower, name)
    if name.startswith("_") or isinstance(obj, types.ModuleType):
        continue
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):  # not callable, or a callable without a signature
        print(name)
        continue
    print(name + str(signature))
    defaulted += sum(p.default is not p.empty for p in signature.parameters.values())
print(defaulted)
"""


def python(root: Path, *args: str, **env: str) -> subprocess.CompletedProcess:
    """``python ARGS`` run in ``root`` on that tree's ``src``, its output as bytes."""
    return subprocess.run([sys.executable, *args], cwd=root, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src"), **env})


def lines_of(root: Path, *args: str) -> list[str]:
    return python(root, *args).stdout.decode().splitlines()


def module_lines(root: Path) -> dict[str, int]:
    """Each module's line count, as ``wc -l`` counts."""
    return {p.name: p.read_bytes().count(b"\n") for p in (root / "src" / "fjpower").glob("*.py")}


def capture(root: Path, calls: dict, out: Path, files: Path) -> None:
    """Each call's written files, stdout, stderr and exit code, under ``out/NAME``."""
    for name, args in calls.items():
        files.mkdir()
        done = python(root, "-m", "fjpower.cli", *args, COLUMNS="80")
        (out / name).mkdir(parents=True)
        (out / name / "stdout").write_bytes(done.stdout)
        (out / name / "stderr").write_bytes(done.stderr)
        (out / name / "exit_code").write_text(f"{done.returncode}\n")
        files.rename(out / name / "files")


def line_diff(base: list[str], head: list[str]) -> list[str]:
    """``diff``'s changed lines: ``< `` base only, ``> `` head only."""
    return [("< " if line[0] == "-" else "> ") + line[1:]
            for line in difflib.unified_diff(base, head, n=0, lineterm="")
            if line[:1] in "-+" and line[:3] not in ("---", "+++")]


def section(same: str, differ: str, lines: list[str]) -> None:
    print("\n".join([differ, "```", *lines, "```"]) if lines else same)


def compare(base: Path, tmp: Path) -> None:
    gen, files = tmp / "gen", tmp / "files"  # one path for both trees, so printed paths match
    # this tree's benchmark writes the generated inputs once, for both trees to read
    done = python(HEAD, "-c", "import pathlib, sys, workloads; "
                  "workloads._scen_generate(7, pathlib.Path(sys.argv[1]))", str(gen),
                  PYTHONPATH=os.pathsep.join([str(HEAD / "src"), str(HEAD / "benchmarks")]))
    if done.returncode:
        sys.exit(done.stderr.decode())
    (tmp / "hostile").mkdir()
    for name, (row, entry) in HOSTILE_NUMBERS.items():
        (tmp / "hostile" / f"{name}.yaml").write_text(NUMBER_FILE.format(name, row, entry))
    calls = {"scenarios": ["batch", "scenarios"],
             "hostile_numbers": ["batch", str(tmp / "hostile")],
             "star_partial": ["batch", "scenarios/star_partial"],
             "scenarios_seed11": ["batch", "scenarios", "--seed", "11"],
             "generated": ["batch", str(gen / "generated")],
             "oracle": ["oracle", "scenarios/three_node_no_ra.yaml"]}
    for path in sorted(HEAD.glob("scenarios/*.yaml")) + sorted(HEAD.glob("scenarios/*/*.yaml")):
        for command in ("run", "report"):
            calls[f"{command}_{path.stem}"] = [command, str(path.relative_to(HEAD))]
    calls = {name: [*args, "--out", str(files)] for name, args in calls.items()}
    calls["help"] = ["--help"]
    calls.update((f"help_{c}", [c, "--help"]) for c in ("run", "batch", "report", "oracle"))
    for tree, root in (("base", base), ("head", HEAD)):
        capture(root, calls, tmp / "cmp" / tree, files)
    differ = subprocess.run(["diff", "-rq", "base", "head"], cwd=tmp / "cmp",
                            capture_output=True, text=True).stdout.splitlines()
    section("artifacts identical to base", "artifacts that differ from base:", differ)
    section("public names and signatures identical to base",
            "public names and signatures against base (< base only, > head only):",
            line_diff(*(lines_of(root, "-c", PUBLIC_SURFACE)[:-1] for root in (base, HEAD))))
    # one test id a line; a collection error leaves what was collected
    section("tests identical to base", "tests against base (< base only, > head only):",
            line_diff(*([line for line in lines_of(root, "-m", "pytest", "--collect-only", "-q",
                                                     "-p", "no:cacheprovider") if "::" in line]
                        for root in (base, HEAD))))
    old, new = module_lines(base), module_lines(HEAD)
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(old.keys() | new.keys())]
    print("src lines against base:", "```", f"{'module':<16}{'base':>6}{'head':>6}{'change':>8}",
          *(f"{name:<16}{b:>6}{h:>6}{h - b:>+8}" for name, b, h in
            rows + [("total", sum(old.values()), sum(new.values()))]), "```", sep="\n")


def sizes() -> None:
    """The source line count, the public surface and its options, and the YAML parser."""
    lines = module_lines(HEAD)
    *names, defaulted = lines_of(HEAD, "-c", PUBLIC_SURFACE)
    print(f"src lines: {sum(lines.values())}", f"public names: {len(names)}",
          f"parameters with defaults: {defaulted}",
          "```", *(f"{name:<16}{count:>6}" for name, count in sorted(lines.items())), "```",
          # scenario loading is about 5x slower on a PyYAML built without libyaml
          f"PyYAML {yaml.__version__}, libyaml: {yaml.__with_libyaml__}", sep="\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("rev", nargs="?", help="the git revision to compare with")
    group.add_argument("--sizes", action="store_true", help="print this tree's sizes alone")
    args = parser.parse_args()
    if args.sizes:
        return sizes()
    git = ["git", "-C", str(HEAD), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "worktree")
        if subprocess.run([*git, "add", "--quiet", "--detach", str(base), args.rev]).returncode:
            sys.exit(1)  # git has said why
        try:
            compare(base, Path(tmp))
        finally:
            subprocess.run([*git, "remove", "--force", str(base)], check=True)


if __name__ == "__main__":
    main()
