"""Answer-set counting strategies and counter backends.

Every mode takes the distinct parts of ``depgraph.split`` one at a time,
tight or not: it builds a part's formulas, counts or enumerates the part
once, however many copies it has, and lets the formulas go before the next
part; the parts' numbers multiply, each raised to its number of copies. A
counted part gives the model count of its completion (whose auxiliaries
its atoms define) less its surplus, the completion models that are not
answer sets: its surplus formula's count projected onto its atoms. An
enumerated part gives the justified models of one search over its
completion, each decided by the clauses that the surplus formula adds
(``copy_checker``). Subtractive mode counts every part, enumeration
mode enumerates every part, and hybrid mode counts tight parts and walks
each loop part's completion models, counting it in place at the threshold.
``subtractive_count``, ``enumerate_count`` and ``hybrid_count`` each return
a ``CountReport``; ``write_formulas`` writes the formulas to files.
"""

import contextlib
import json
import os
import signal
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass

from .completion import clark_completion, CompletionArtifact
from .copyenc import copy_checker, surplus_formula, SurplusArtifact
from .depgraph import build_dependency_graph, loop_atoms, split
from .program import GroundProgram
from .sat import _clocked, _time_left, count_models, models, projected_count

HYBRID_THRESHOLD = 10_000  # hybrid_count's default switch point


class BackendError(RuntimeError):
    """Base class for external-counter failures."""


class BackendTimeout(BackendError):
    pass


class BackendFailure(BackendError):
    """The external counter exited with a nonzero status."""


class BackendOutputError(BackendError):
    """The external counter's output held no recognizable count."""


class IntegrityError(RuntimeError):
    """The surplus exceeded the overcount; the subtraction would go
    negative, so an encoding or backend is wrong."""


@dataclass
class CountReport:
    """Result of one counting run. In subtractive and hybrid mode
    ``answer_sets == overcount - surplus``, and the overcount is the product
    of the parts' completion-model counts, a distinct part's counted once
    and raised to the number of its copies. A report whose mode is
    "enumeration" (from ``enumerate_count``, or from ``hybrid_count`` with
    fewer answer sets than its threshold) gives the plain count with surplus
    zero, and whether it is below the cap (``exhausted``); in the other modes
    ``exhausted`` is None. ``backend`` is "builtin", or "exec:PATH" once a
    part was counted by the external counter at PATH. ``encode_time``
    covers the analysis and, summed over the distinct parts, their formulas:
    each completion, and each loop part's surplus formula; ``count_time``
    covers the rest."""

    overcount: int
    surplus: int
    answer_sets: int
    mode: str
    backend: str
    encode_time: float
    count_time: float
    loop_atom_count: int
    exhausted: bool | None = None

    def to_json_dict(self) -> dict:
        payload = {"schema": 1, **asdict(self)}
        if self.exhausted is None:
            del payload["exhausted"]
        return payload


def parse_counter_output(text: str) -> int:
    """Extract a model count from counter output.

    Recognized, in order of preference: an ``s mc <N>`` line, a
    ``c s exact arb int <N>`` line, and finally a line that is nothing but
    a count (the last such line wins). A count is ASCII digits only; a line
    with any other count token (a sign, say) is skipped.
    """
    bare = arb = None
    for raw in text.splitlines():
        parts = raw.split()
        if not (parts and parts[-1].isascii() and parts[-1].isdigit()):
            continue
        if len(parts) == 3 and parts[:2] == ["s", "mc"]:
            return int(parts[2])
        if len(parts) == 6 and parts[:5] == ["c", "s", "exact", "arb", "int"]:
            arb = int(parts[5])
        if len(parts) == 1:
            bare = int(parts[0])
    if arb is None and bare is None:
        raise BackendOutputError("no model count found in counter output")
    return bare if arb is None else arb


def external_projected_count(dimacs_path: str, counter: str) -> int:
    """Run the external counter at path ``counter`` as ``counter
    dimacs_path`` and parse the reported count. Projection is communicated
    through the file's ``c p show`` line; counters without projection
    support simply count all models, which is only sound for formulas whose
    extra variables are defined functionally. Inside ``sat.time_limit`` the
    counter is stopped at the deadline, and not started past it
    (``BackendTimeout``). Every process the counter starts is killed when
    the call ends."""
    if not counter:
        raise ValueError("external_projected_count needs a counter path")
    left = _time_left()
    if left <= 0:
        raise BackendTimeout("counter timed out: no time left to start it")
    try:
        proc = subprocess.Popen(
            [counter, dimacs_path], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, errors="replace", start_new_session=True,
        )
    except OSError as exc:
        raise BackendFailure(f"could not run {counter}: {exc}") from exc
    with proc:  # closes the pipes and reaps the counter
        try:
            while True:  # in slices of a day: selectors refuse a wait past 24.8 days
                with contextlib.suppress(subprocess.TimeoutExpired):
                    stdout, stderr = proc.communicate(timeout=min(left, 86400))
                    break
                if (left := _time_left()) <= 0:
                    raise BackendTimeout("counter timed out at the time limit")
        finally:
            # the counter leads a process group: end it, whatever ended the call
            with contextlib.suppress(OSError):
                os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode != 0:
        raise BackendFailure(
            f"counter exited with status {proc.returncode}: {stderr.strip()[:200]}"
        )
    return parse_counter_output(stdout)


def write_formulas(
    directory: str,
    program: GroundProgram,
    completion: CompletionArtifact,
    surplus_art: SurplusArtifact,
) -> list[str]:
    """Write ``phi1.cnf`` (the completion), ``phi2.cnf`` (the surplus
    formula, with a show line over the atoms) and ``phi2.map.json`` into
    ``directory``, for a tight program too. Returns the paths written, in
    that order. Inside ``sat.time_limit`` the texts are built on the clock,
    and a deadline that passes while they are built leaves no file
    (``SearchTimeout``)."""
    os.makedirs(directory, exist_ok=True)
    texts = {"phi1.cnf": completion.to_dimacs(program)}
    texts["phi2.cnf"] = surplus_art.to_dimacs(program)
    # json.dumps(map, indent=2, sort_keys=True), on the clock and making no cycles
    sections = []
    for key, value in sorted(surplus_art.variable_map(program).items()):
        if isinstance(value, dict):
            ends = "{}"
            items = [f"{json.dumps(k)}: {v}" for k, v in _clocked(sorted(value.items()))]
        else:
            ends, items = "[]", [str(v) for v in _clocked(value)]
        inner = "\n    " + ",\n    ".join(items) + "\n  " if items else ""
        sections.append(f"  {json.dumps(key)}: {ends[0]}{inner}{ends[1]}")
    texts["phi2.map.json"] = "{\n" + ",\n".join(sections) + "\n}\n"
    for name, text in texts.items():
        with open(os.path.join(directory, name), "w") as handle:
            handle.write(text)
    return [os.path.join(directory, name) for name in texts]


def _count_part(
    program: GroundProgram,
    completion: CompletionArtifact,
    surplus_art: SurplusArtifact | None,
    counter: str | None,
    where: str,
) -> tuple[int, int]:
    """Count one part's completion formula and, when the part has loop
    atoms, its surplus formula projected onto the atoms, in process or by
    the external counter at path ``counter``. Returns (overcount, surplus),
    or raises IntegrityError, naming the part by ``where``, when the surplus
    exceeds the overcount. The external counter reads DIMACS files written
    to a temporary directory, which is removed when the call ends, however
    it ends."""
    if counter:
        with tempfile.TemporaryDirectory(prefix="aspsubcount-") as tmp:
            paths = []
            for i, formula in enumerate(filter(None, [completion, surplus_art]), 1):
                paths.append(os.path.join(tmp, f"phi{i}.cnf"))
                with open(paths[-1], "w") as handle:
                    handle.write(formula.to_dimacs(program))
            counts = [external_projected_count(path, counter) for path in paths]
        over, surplus = counts[0], sum(counts[1:])  # no phi2.cnf: surplus 0
    else:
        over, surplus = count_models(completion.cnf), 0
        if surplus_art:
            surplus = projected_count(surplus_art.cnf, surplus_art.projection_out)
    if surplus > over:
        raise IntegrityError(
            f"surplus {surplus} exceeds overcount {over}{where}; "
            "encoding or backend is inconsistent"
        )
    return over, surplus


def _enumerate_part(
    completion: CompletionArtifact,
    surplus_art: SurplusArtifact | None,
    limit: int | None,
    hybrid: bool,
) -> tuple[int, int] | None:
    """Walk one part's completion models until ``limit`` answer sets are
    found (None: no limit) or, when ``hybrid``, until ``limit`` models are
    walked. The copy check on the surplus formula runs only where the part
    has loop atoms. Returns (models walked, those that are not answer sets),
    or None when a ``hybrid`` walk reaches its limit."""
    not_answer_set = surplus_art and copy_checker(completion, surplus_art)
    walked = found = 0
    for model in models(completion.cnf.clauses, completion.cnf.num_vars):
        walked += 1
        if not (not_answer_set and not_answer_set(model)):
            found += 1
        if (walked if hybrid else found) == limit:
            return None if hybrid else (walked, walked - found)
    return walked, walked - found


def _count_by_parts(
    program: GroundProgram,
    mode: str,
    limit: int | None = None,
    counter: str | None = None,
) -> CountReport:
    """The counting loop of every mode ("subtractive", "enumeration" or
    "hybrid") over the distinct parts of ``split(program, loops)``, the
    program's loop atoms found once, here. Each part in turn is built, then
    enumerated by ``_enumerate_part`` (up to ``limit`` answer sets in
    "enumeration" mode; a loop part in "hybrid" mode) or counted by
    ``_count_part`` with ``counter`` (the other parts, and a "hybrid" loop
    part whose walk reaches ``limit`` models, on the formulas the walk
    used), and its formulas are let go before the next part is built. Its
    numbers are raised to the number of its copies, which count alike. The
    loop stops at the first part that makes the reported product zero (the
    overcount in "subtractive" mode, the answer sets in the others). An
    IntegrityError names its part as "part i of N" of the distinct parts."""
    if (limit is None and mode == "hybrid") or (limit is not None and limit < 1):
        raise ValueError(f"{mode} limit must be at least 1")
    t0 = time.perf_counter()
    program_loops = loop_atoms(build_dependency_graph(program))
    parts = split(program, program_loops)
    encode_time = time.perf_counter() - t0
    overcount, answer_sets, counted = 1, 1, False
    for i, (part, loops, copies) in enumerate(parts):
        t1 = time.perf_counter()
        completion = clark_completion(part)
        surplus_art = surplus_formula(part, completion, loops) if loops else None
        encode_time += time.perf_counter() - t1
        walk = None
        if mode == "enumeration" or (mode == "hybrid" and loops):
            walk = _enumerate_part(completion, surplus_art, limit, mode == "hybrid")
        if walk:
            over, surplus = walk
        else:
            where = f" in part {i + 1} of {len(parts)}" if len(parts) > 1 else ""
            over, surplus = _count_part(part, completion, surplus_art, counter, where)
            counted = True
        del completion, surplus_art  # before the next part is built
        overcount *= over**copies
        answer_sets *= (over - surplus) ** copies
        if (overcount if mode == "subtractive" else answer_sets) == 0:
            break
    count_time = time.perf_counter() - t0 - encode_time

    backend = f"exec:{counter}" if counted and counter else "builtin"
    exhausted = None
    if mode == "enumeration" or (mode == "hybrid" and answer_sets < limit):
        exhausted = limit is None or answer_sets < limit
        mode, overcount = "enumeration", answer_sets if exhausted else limit
        answer_sets = overcount
    return CountReport(
        overcount, overcount - answer_sets, answer_sets, mode, backend,
        encode_time, count_time, len(program_loops), exhausted,
    )


def subtractive_count(program: GroundProgram, counter: str | None = None) -> CountReport:
    """Count answer sets as completion models minus surplus, part by part,
    in process or by the external counter at path ``counter``.

    A part without loop atoms has surplus zero by construction, and its
    surplus is not counted. Raises IntegrityError if the counted surplus of
    a part exceeds its overcount.
    """
    return _count_by_parts(program, "subtractive", None, counter)


def enumerate_count(program: GroundProgram, limit: int | None = None) -> CountReport:
    """Enumerate answer sets part by part. The report's count is capped at
    ``limit`` (None: no cap), and ``exhausted`` is True only when there are
    fewer answer sets than the limit."""
    return _count_by_parts(program, "enumeration", limit)


def hybrid_count(
    program: GroundProgram,
    threshold: int = HYBRID_THRESHOLD,
    counter: str | None = None,
) -> CountReport:
    """Count tight parts, in process or by the external counter at path
    ``counter``; walk each loop part's completion models, and count the part
    in its place once ``threshold`` models are walked. The mode is
    "enumeration" when the answer sets number fewer than the threshold, and
    "hybrid" otherwise."""
    return _count_by_parts(program, "hybrid", threshold, counter)
