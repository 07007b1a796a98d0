"""Deterministic inputs for the benchmark: synthetic corpora.

The synthetic corpus xR copies the four bundled toy theories R times.
Copy i prefixes every declared name with ``r<i>_``: theories, types,
constants and theorems (``ADD_def`` becomes ``r3_ADD_def``, which still
ends in ``_def`` and so stays a definition).  Copy i's ``logic`` lists copy
i-1's ``hof`` as its ancestor, so the copies form one chain.  Constants are
renamed as well as theorems: otherwise every copy states the same
formulas, the learner sees R identical neighbours per statement, and no
recorded dependency can be told apart from its twins.

Usage::

    python3 perfbench/gen.py --copies 5 --out DIR [--canary]

``--canary`` appends the canary theory (two goals with hand-checked
answers).  The same arguments always give byte-identical files.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

TOY = Path(__file__).resolve().parent.parent / "src" / "hammerkit" / "data" / "toy"

THEORY_LINE = re.compile(r"theory\(\s*([A-Za-z0-9_]+)\s*,\s*\[([^\]]*)\]\s*\)\.")
_TT = re.compile(r"tt\(\s*([A-Za-z0-9_]+)\s*,\s*(ty|ax|conj)\s*,\s*(.*)\)\.\s*$")
_TOKEN = re.compile(r"[A-Za-z0-9_]+")
_CONJ = re.compile(r"^(.*)_c([0-9]+)$")

# Two goals whose answers were worked out by hand; their premises are named
# as definitions so that only the goals themselves are targets.
#
# BOGUS is not a theorem: the naturals together with a one-element type
# ``one`` satisfy ONE_SING_def and falsify 0 = SUC 0.
# UP_C is a theorem: every element of ``u`` equals ua, so ub = uc and
# UP ub gives UP uc.
CANARY_THEORY = "canary"
# The verdicts that are wrong for each canary goal.
CANARY_WRONG = {
    "BOGUS": ("Theorem", "Unsatisfiable"),
    "UP_C": ("CounterSatisfiable", "Satisfiable"),
}
_CANARY_TT = """\
tt(one, ty, $t).
tt(one_c, ty, one).
tt(ONE_SING_def, ax, ![x:one]: (x = one_c)).
tt(BOGUS, ax, {zero} = {suc} {zero}).
tt(u, ty, $t).
tt(ua, ty, u).
tt(ub, ty, u).
tt(uc, ty, u).
tt(UP, ty, u > bool).
tt(U_SING_def, ax, ![x:u]: (x = ua)).
tt(UP_B_def, ax, UP ub).
tt(UP_C, ax, UP uc).
"""
_CANARY_DEPS = """\
deps(BOGUS, [ONE_SING_def]).
deps(UP_C, [U_SING_def, UP_B_def]).
"""


def is_definition(name: str) -> bool:
    return name.endswith(("_def", "_DEF"))


def prefix(copy: int) -> str:
    return f"r{copy}_"


def _toy_files(toy: Path) -> tuple[list[tuple[str, list[str]]], dict[str, tuple[str, str]]]:
    theories = [
        (m.group(1), [a.strip() for a in m.group(2).split(",") if a.strip()])
        for m in THEORY_LINE.finditer((toy / "corpus.thy").read_text(encoding="utf-8"))
    ]
    files = {}
    for name, _ in theories:
        deps = toy / f"{name}.deps"
        files[name] = (
            (toy / f"{name}.tt").read_text(encoding="utf-8"),
            deps.read_text(encoding="utf-8") if deps.exists() else "",
        )
    return theories, files


def _declared(theories, files) -> set[str]:
    names = {name for name, _ in theories}
    for tt, _ in files.values():
        for line in tt.splitlines():
            m = _TT.match(line)
            if m:
                names.add(m.group(1))
    return names


def _renamer(declared: set[str], pre: str):
    def one(m: re.Match) -> str:
        tok = m.group(0)
        if tok in declared:
            return pre + tok
        c = _CONJ.match(tok)
        if c and c.group(1) in declared:
            return pre + tok
        return tok

    return lambda text: _TOKEN.sub(one, text)


def scaled_corpus(copies: int, canary: bool = False, toy: Path = TOY) -> dict[str, str]:
    """File name -> text of the synthetic corpus xR (R = ``copies``)."""
    if copies < 1:
        raise ValueError("copies must be at least 1")
    theories, files = _toy_files(toy)
    declared = _declared(theories, files)
    first = theories[0][0]
    thy_lines: list[str] = []
    out: dict[str, str] = {}
    for i in range(copies):
        rename = _renamer(declared, prefix(i))
        for name, ancs in theories:
            ancs = [prefix(i) + a for a in ancs]
            if name == first and i > 0:
                ancs = [prefix(i - 1) + theories[-1][0]]
            thy_lines.append(f"theory({prefix(i) + name}, [{', '.join(ancs)}]).")
            tt, deps = files[name]
            out[f"{prefix(i) + name}.tt"] = rename(tt)
            if deps:
                out[f"{prefix(i) + name}.deps"] = rename(deps)
    if canary:
        last = prefix(copies - 1)
        thy_lines.append(f"theory({CANARY_THEORY}, [{last + theories[-1][0]}]).")
        out[f"{CANARY_THEORY}.tt"] = _CANARY_TT.format(zero=last + "0", suc=last + "SUC")
        out[f"{CANARY_THEORY}.deps"] = _CANARY_DEPS
    out["corpus.thy"] = "\n".join(thy_lines) + "\n"
    return out


def write_files(out: Path, files: dict[str, str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for fname, text in sorted(files.items()):
        (out / fname).write_text(text, encoding="utf-8")


def generate(out: Path, copies: int, canary: bool = False) -> None:
    """Write the corpus to ``out/corpus``."""
    write_files(out / "corpus", scaled_corpus(copies, canary))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--copies", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--canary", action="store_true")
    args = ap.parse_args()
    generate(Path(args.out), args.copies, args.canary)


if __name__ == "__main__":
    main()
