"""The preset command matrix: every shipped `presets/*.json` under `run`, `run
--format json`, `sweep` and the four `check` suites, run in-process through
`cli.main`, with what each command leaves behind: its exit code, stdout,
stderr and report (the `timings` block dropped, the output directory written
as `<out>`, the presets directory as `presets`).

`python tests/command_matrix.py` rewrites `command_matrix.json` beside this
file from the `causalq` it imports; `test_command_matrix.py` holds the CLI to
that fixture: codes and text exactly, every number to 1e-12 (`same`).
"""
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
PRESETS = HERE.parent / "presets"
FIXTURE = HERE / "command_matrix.json"
COMMANDS = {
    "run": ("run",),
    "run_json": ("run", "--format", "json"),
    "sweep": ("sweep",),
    "check_borsten": ("check", "--suite", "borsten"),
    "check_fuksa": ("check", "--suite", "fuksa"),
    "check_fv": ("check", "--suite", "fv"),
    "check_detector": ("check", "--suite", "detector"),
}
# a number as the CLI prints it: fmt17, repr, or an integer inside a message
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run_command(preset: str, command: str, out_dir: Path) -> dict:
    """One command of the matrix, run in-process on `presets/<preset>.json`."""
    from causalq.cli import main
    verb, *extra = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, str(PRESETS / f"{preset}.json"), "--out", str(out_dir), *extra])

    def local(text: str) -> str:
        return text.replace(str(out_dir), "<out>").replace(str(PRESETS), "presets")

    report_path = out_dir / f"{preset}.report.json"
    report = None
    if report_path.exists():
        report = json.loads(local(report_path.read_text()))
        del report["timings"]
    return {"code": code, "stdout": local(out.getvalue()),
            "stderr": local(err.getvalue()), "report": report}


def run_matrix() -> dict:
    """Every shipped preset under every command, keyed `preset/command`."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(PRESETS.glob("*.json")):
            for command in COMMANDS:
                out_dir = Path(tmp) / path.stem / command
                out[f"{path.stem}/{command}"] = run_command(path.stem, command, out_dir)
    return out


def _close(a: float, b: float) -> bool:
    """Within 1e-12 relative, or absolute below magnitude 1, where rounding-level
    residuals sit; NaN matches NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def _same_text(want: str, got: str) -> bool:
    """Equal text around the numbers, and numbers equal by `_close`."""
    w, g = _NUMBER.split(want), _NUMBER.split(got)
    return len(w) == len(g) and all(
        (x == y) if k % 2 == 0 else _close(float(x), float(y))
        for k, (x, y) in enumerate(zip(w, g)))


def same(want, got, text_numbers: bool = False) -> bool:
    """`got` matches the fixture's `want`: keys, lengths, types, bools and
    strings exactly, floats by `_close`; with `text_numbers`, numbers inside
    strings by `_close` too (stdout and stderr)."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and want.keys() == got.keys()
                and all(same(want[k], got[k], k in ("stdout", "stderr") or text_numbers)
                        for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(same(w, g, text_numbers) for w, g in zip(want, got)))
    if isinstance(want, float) and type(got) is float:
        return _close(want, got)
    if isinstance(want, str) and isinstance(got, str) and text_numbers:
        return _same_text(want, got)
    return type(want) is type(got) and want == got


if __name__ == "__main__":
    matrix = run_matrix()
    FIXTURE.write_text(json.dumps(matrix, indent=1, sort_keys=True) + "\n")
    codes = [entry["code"] for entry in matrix.values()]
    print(f"{FIXTURE.name}: {len(matrix)} commands, exit codes "
          f"{ {c: codes.count(c) for c in sorted(set(codes))} }", file=sys.stderr)
