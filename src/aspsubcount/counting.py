"""Answer-set counting strategies and counter backends.

The subtractive pipeline splits the program into atom-disjoint parts and,
for each part, counts models of the completion, counts the surplus
(completion models that are not answer sets) by projected counting, and
subtracts; the parts' counts multiply. Enumeration keeps the justified
models of one search over the completion. The hybrid strategy enumerates
up to a threshold and falls back to subtraction when the threshold is hit.
"""

import contextlib
import json
import os
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field

from .completion import clark_completion, CompletionArtifact
from .copyenc import surplus_formula, SurplusArtifact
from .depgraph import Analysis, split
from .oracle import copy_check
from .program import GroundProgram
from .sat import count_models, models, projected_count


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
class BackendConfig:
    """How to obtain model counts.

    kind "builtin" uses the in-process counter; "external" runs
    ``executable`` on a DIMACS file. ``args_template`` entries are passed
    through, with "{cnf}" replaced by the file path (appended when no entry
    mentions it).
    """

    kind: str = "builtin"
    executable: str | None = None
    args_template: list[str] = field(default_factory=list)
    timeout: float | None = None

    def __post_init__(self):
        if self.kind not in ("builtin", "external"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "external" and not self.executable:
            raise ValueError("external backend needs an executable")

    def label(self) -> str:
        if self.kind == "builtin":
            return "builtin"
        return f"exec:{self.executable}"


@dataclass
class CountReport:
    """Result of one counting run. In subtractive mode
    ``answer_sets == overcount - surplus``; enumeration reports the plain
    count with surplus zero, and whether it ran the model space dry
    (``exhausted``, None on the subtractive paths)."""

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
    an integer (the last such line wins).
    """
    bare = None
    arb = None
    for raw in text.splitlines():
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "s" and parts[1] == "mc":
            try:
                return int(parts[2])
            except ValueError:
                continue
        if parts[:5] == ["c", "s", "exact", "arb", "int"] and len(parts) == 6:
            try:
                arb = int(parts[5])
            except ValueError:
                pass
        if len(parts) == 1:
            try:
                bare = int(parts[0])
            except ValueError:
                pass
    if arb is not None:
        return arb
    if bare is not None:
        return bare
    raise BackendOutputError("no model count found in counter output")


def external_projected_count(dimacs_path: str, config: BackendConfig) -> int:
    """Run the configured external counter on a DIMACS file and parse the
    reported count. Projection is communicated through the file's
    ``c p show`` line; counters without projection support simply count all
    models, which is only sound for formulas whose extra variables are
    defined functionally."""
    if config.kind != "external":
        raise ValueError("external_projected_count needs an external backend")
    argv = [config.executable]
    replaced = False
    for arg in config.args_template:
        if "{cnf}" in arg:
            argv.append(arg.replace("{cnf}", dimacs_path))
            replaced = True
        else:
            argv.append(arg)
    if not replaced:
        argv.append(dimacs_path)
    try:
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=config.timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BackendTimeout(f"counter timed out after {config.timeout}s") from exc
    except OSError as exc:
        raise BackendFailure(f"could not run {argv[0]}: {exc}") from exc
    if proc.returncode != 0:
        raise BackendFailure(
            f"counter exited with status {proc.returncode}: {proc.stderr.strip()[:200]}"
        )
    return parse_counter_output(proc.stdout)


def write_formulas(
    directory: str,
    program: GroundProgram,
    completion: CompletionArtifact,
    surplus_art: SurplusArtifact | None = None,
    show_atoms: bool = False,
) -> list[str]:
    """Write ``phi1.cnf`` (the completion, with a show line over the atom
    variables when ``show_atoms``) and, given the surplus formula,
    ``phi2.cnf`` and ``phi2.map.json`` into ``directory``. Returns the
    paths written, in that order."""
    os.makedirs(directory, exist_ok=True)
    phi1_path = os.path.join(directory, "phi1.cnf")
    show = sorted(completion.atom_vars.values()) if show_atoms else None
    texts = [(phi1_path, completion.to_dimacs(program, show))]
    if surplus_art is not None:
        texts.append((os.path.join(directory, "phi2.cnf"), surplus_art.to_dimacs(program)))
        mapping = json.dumps(surplus_art.variable_map(program), indent=2, sort_keys=True)
        texts.append((os.path.join(directory, "phi2.map.json"), mapping + "\n"))
    for path, text in texts:
        with open(path, "w") as handle:
            handle.write(text)
    return [path for path, _ in texts]


def _emit_formulas(
    directory: str,
    program: GroundProgram,
    analysis: Analysis,
    completion: CompletionArtifact | None = None,
    surplus_anyway: bool = False,
    show_atoms: bool = False,
) -> list[str]:
    """Write the files of ``count --emit-cnf``, the same in every mode: the
    whole program's completion (``completion``, built here when not given)
    and, when the program has loop atoms or under ``surplus_anyway``, its
    surplus formula."""
    if completion is None:
        completion = clark_completion(program)
    surplus_art = None
    if analysis.loops or surplus_anyway:
        surplus_art = surplus_formula(program, completion, analysis.loops)
    return write_formulas(directory, program, completion, surplus_art, show_atoms)


def _count_part(
    program: GroundProgram,
    completion: CompletionArtifact,
    surplus_art: SurplusArtifact | None,
    config: BackendConfig,
    project_overcount: bool,
    tmp_dir: str | None,
) -> tuple[int, int]:
    """Count one part's completion formula and (when built) its surplus
    formula. The external backend reads DIMACS files written to
    ``tmp_dir``."""
    if config.kind == "external":
        paths = write_formulas(tmp_dir, program, completion, surplus_art, project_overcount)
        over = external_projected_count(paths[0], config)
        surplus = (
            external_projected_count(paths[1], config) if surplus_art is not None else 0
        )
        return over, surplus
    if project_overcount:
        over = projected_count(completion.cnf, completion.aux_vars)
    else:
        over = count_models(completion.cnf)
    surplus = (
        projected_count(surplus_art.cnf, surplus_art.projection_out)
        if surplus_art is not None
        else 0
    )
    return over, surplus


def subtractive_count(
    program: GroundProgram,
    config: BackendConfig | None = None,
    emit_dir: str | None = None,
    count_surplus_anyway: bool = False,
    project_overcount: bool = False,
    analysis: Analysis | None = None,
) -> CountReport:
    """Count answer sets as completion models minus surplus.

    The program is split into atom-disjoint parts (``depgraph.split``);
    each part is counted subtractively and the counts multiply. A part
    without loop atoms has surplus zero by construction, and its surplus
    is not counted unless ``count_surplus_anyway`` is set. ``emit_dir``
    receives the whole program's formulas. ``analysis`` is the program's
    own, computed here when not given. Raises IntegrityError if the
    counted surplus of a part exceeds its overcount.
    """
    config = config or BackendConfig()
    t0 = time.perf_counter()
    if analysis is None:
        analysis = Analysis(program)
    parts = []
    for part, loops in split(analysis):
        completion = clark_completion(part)
        need_surplus = bool(loops) or count_surplus_anyway
        surplus_art = surplus_formula(part, completion, loops) if need_surplus else None
        parts.append((part, completion, surplus_art))
    if emit_dir is not None:
        _emit_formulas(
            emit_dir,
            program,
            analysis,
            surplus_anyway=count_surplus_anyway,
            show_atoms=project_overcount,
        )
    encode_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    overcount, answer_sets = 1, 1
    if config.kind == "external":
        scratch = tempfile.TemporaryDirectory(prefix="aspsubcount-")
    else:
        scratch = contextlib.nullcontext()
    with scratch as tmp:
        for i, (part, completion, surplus_art) in enumerate(parts):
            part_dir = os.path.join(tmp, f"part{i}") if tmp else None
            over, surplus = _count_part(
                part, completion, surplus_art, config, project_overcount, part_dir
            )
            if surplus > over:
                where = f" in part {i + 1} of {len(parts)}" if len(parts) > 1 else ""
                raise IntegrityError(
                    f"surplus {surplus} exceeds overcount {over}{where}; "
                    "encoding or backend is inconsistent"
                )
            overcount *= over
            answer_sets *= over - surplus
    count_time = time.perf_counter() - t1

    return CountReport(
        overcount=overcount,
        surplus=overcount - answer_sets,
        answer_sets=answer_sets,
        mode="subtractive",
        backend=config.label(),
        encode_time=encode_time,
        count_time=count_time,
        loop_atom_count=len(analysis.loops),
    )


def enumerate_count(
    program: GroundProgram,
    limit: int | None = None,
    analysis: Analysis | None = None,
    completion: CompletionArtifact | None = None,
) -> tuple[int, bool]:
    """Enumerate answer sets via completion models plus the copy check.

    Stops once ``limit`` answer sets are found. Returns (count, exhausted);
    exhausted is True only when the model space ran dry below the limit.
    ``limit`` None means enumerate everything. ``analysis`` and
    ``completion`` are the whole program's, built here when not given.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    if completion is None:
        completion = clark_completion(program)
    loops = (analysis or Analysis(program)).loops
    n = program.num_atoms
    count = 0
    for model in models(completion.cnf.clauses, completion.cnf.num_vars):
        interp = frozenset(x for x in range(n) if model[x + 1])
        if not copy_check(program, interp, loops, completion):
            count += 1
            if limit is not None and count >= limit:
                return count, False
    return count, True


def enumeration_report(
    program: GroundProgram,
    limit: int | None = None,
    analysis: Analysis | None = None,
    emit_dir: str | None = None,
    project_overcount: bool = False,
) -> CountReport:
    """``enumerate_count`` as a report: the encode phase builds the
    analysis (when not given) and the completion, and writes the formulas
    into ``emit_dir`` as ``subtractive_count`` does under the same
    ``project_overcount``; the count phase enumerates."""
    t0 = time.perf_counter()
    if analysis is None:
        analysis = Analysis(program)
    completion = clark_completion(program)
    if emit_dir is not None:
        _emit_formulas(
            emit_dir, program, analysis, completion, show_atoms=project_overcount
        )
    encode_time = time.perf_counter() - t0
    t1 = time.perf_counter()
    count, exhausted = enumerate_count(program, limit, analysis, completion)
    return CountReport(
        overcount=count,
        surplus=0,
        answer_sets=count,
        mode="enumeration",
        backend="builtin",
        encode_time=encode_time,
        count_time=time.perf_counter() - t1,
        loop_atom_count=len(analysis.loops),
        exhausted=exhausted,
    )


def hybrid_count(
    program: GroundProgram,
    threshold: int = 10_000,
    config: BackendConfig | None = None,
    emit_dir: str | None = None,
    project_overcount: bool = False,
) -> CountReport:
    """Enumerate up to ``threshold`` answer sets; if the threshold is hit,
    rerun subtractively (under ``project_overcount``). The mode field
    records the path that produced the number: "enumeration" when
    enumeration finished, "hybrid" when it switched. Both paths share one
    analysis of the program; the times add up both paths' phases.
    ``emit_dir`` receives the formulas before enumeration starts, whichever
    path produces the number."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    t0 = time.perf_counter()
    analysis = Analysis(program)
    analysis_time = time.perf_counter() - t0
    enumerated = enumeration_report(
        program, threshold, analysis, emit_dir, project_overcount
    )
    enumerated.encode_time += analysis_time
    if enumerated.exhausted:
        return enumerated
    report = subtractive_count(
        program, config, project_overcount=project_overcount, analysis=analysis
    )
    report.mode = "hybrid"
    report.encode_time += enumerated.encode_time
    report.count_time += enumerated.count_time
    return report
