"""
Command line tour
=================

Every subcommand, driven end to end through subprocess, with the exit-code
contract on display: 0 verdict true, 1 verdict false, 2 malformed input,
3 budget exhausted.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# removed at the end, and at exit should a step fail
workdir = tempfile.TemporaryDirectory(prefix="topolinear-cli-")
work = Path(workdir.name)


def run(*argv, expect: int):
    cmd = [sys.executable, "-m", "topolinear", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    shown = " ".join(a if "/" not in a else Path(a).name for a in argv)
    out = proc.stdout.strip() or proc.stderr.strip()
    print(f"$ topolinear {shown}\n  -> exit {proc.returncode}: {out}")
    assert proc.returncode == expect, (proc.returncode, expect, out)
    return proc


def spec(name: str, obj) -> str:
    path = work / name
    path.write_text(json.dumps(obj))
    return str(path)


# construct: graph of the twisted loop, certificate on the side
graph5 = spec("graph5.json", {"loop": {"name": "cp", "p": 5}})
run("construct", graph5, str(work / "c5.json"),
    "--certificate", str(work / "c5.cert.json"), expect=0)

# verify in all three modes; the certificate path replays without search
run("verify", str(work / "c5.json"), expect=0)
run("verify", str(work / "c5.json"), "--mode", "transitive", expect=0)
run("verify", str(work / "c5.json"), "--mode", "topolinear",
    "--certificate", str(work / "c5.cert.json"), expect=0)

# a corrupted word list fails the mds check
broken = json.loads((work / "c5.json").read_text())
broken["words"][0] = broken["words"][1]
(work / "broken.json").write_text(json.dumps(broken))
run("verify", str(work / "broken.json"), expect=1)

# classify wants q = 4, which the paired-symbol construction gives at p=2, k=1
quad = spec("quad.json", {"p": 2, "k": 1, "n": 3, "r": "x1x2"})
run("construct", quad, str(work / "quad.code.json"), expect=0)
run("classify", str(work / "quad.code.json"), expect=0)

# equivalence search: same class vs different class among the n=3 forms
for r in ("0", "x1x2", "x1x3"):
    run("construct", spec(f"f{r}.json", {"p": 2, "k": 1, "n": 3, "r": r}),
        str(work / f"code-{r}.json"), expect=0)
run("equivalent", str(work / "code-x1x2.json"), str(work / "code-x1x3.json"),
    expect=0)
run("equivalent", str(work / "code-0.json"), str(work / "code-x1x2.json"),
    expect=1)

# counting report, machine readable
proc = run("count", "--partitions", "10,20", "--forms", "2,1,3", "--json",
           expect=0)
payload = json.loads(proc.stdout)
print("  form classes:", [len(c) for c in payload["forms"]["classes"]])

# g-loop verdicts: builtin pass, builtin fail, order over the bound
run("gloop", "cp", "--p", "3", expect=0)
run("gloop", "non-g-6", expect=1)
run("gloop", "cp", "--p", "7", expect=3)

# malformed input is always exit 2, never a traceback
run("verify", str(work / "nope.json"), expect=2)
run("construct", spec("bad.json", {"outer": "cp", "p": 1, "inner": [3]}),
    str(work / "never.json"), expect=2)

print("\nall exit codes as promised")
workdir.cleanup()
