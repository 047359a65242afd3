"""Check that each test file gives the same verdicts alone as in the full suite.

hypothesis mixes the number literals of every loaded module into its draws,
so a file run alone can draw other examples than in the full suite. This
runs the full suite and then each tests/test_*.py alone, all with -rA, prints
every test whose verdict differs and exits 1 if any does. Run it from
anywhere with `python tools/per_file_verdicts.py`.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# an -rA summary line: "<VERDICT> <test id>[ - <reason>]"; a parametrized id may hold spaces
SUMMARY = re.compile(r"^(PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS) (\S+?\[.*?\](?= - |$)|\S+)", re.M)


def verdicts(*paths: str) -> dict[str, str]:
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          *paths], cwd=ROOT, capture_output=True, text=True)
    if run.returncode not in (0, 1):  # 1: some test failed; anything else: no verdicts
        sys.exit(f"pytest {' '.join(paths)} exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return {test: verdict for verdict, test in SUMMARY.findall(run.stdout)}


def main() -> int:
    full = {test: verdict for test, verdict in verdicts().items() if test.startswith("tests/")}
    alone = {}
    for path in sorted(ROOT.glob("tests/test_*.py")):
        alone.update(verdicts(path.relative_to(ROOT).as_posix()))
    differ = sorted(test for test in full.keys() | alone.keys() if full.get(test) != alone.get(test))
    for test in differ:
        print(f"{test}: {full.get(test)} in the full suite, {alone.get(test)} alone")
    print(f"{len(full)} tests compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
