"""RPR3xx — static verification of the DRAS network architecture.

The paper pins the network down to exact trainable-parameter counts
(Table III: 21,890,053 for Theta-PG).  The repo *tests* those counts by
building the networks with NumPy, but a test only runs what it
imports — a drive-by edit to :func:`repro.nn.network.build_dras_network`
or :class:`repro.core.config.DRASConfig` is caught late, at test time,
with an opaque numeric diff.

This module proves the same facts **at lint time, without importing the
code under analysis** (no NumPy, no ``repro.nn``):

1. it statically evaluates the Table III configurations from
   ``repro/core/config.py`` (dataclass defaults + the ``theta()`` /
   ``cori()`` presets + the ``pg_dims`` / ``dql_dims`` properties),
2. it abstractly interprets the ``Network([...])`` literal inside
   ``build_dras_network`` using the known layer semantics
   (``Conv1x2``: ``[B, R, 2] -> [B, R]``, 3 params; ``Dense(i, o)``:
   ``[B, i] -> [B, o]``, ``i*o (+ o with bias)``; ``LeakyReLU``:
   shape-preserving, 0 params),
3. it checks layer-to-layer shape compatibility (**RPR301**) and
   compares the abstract parameter totals against both the
   ``NetworkDims.param_count`` formula and the paper's Table III
   literals in ``repro/experiments/table3.py`` (**RPR302**),
4. it re-derives the *batched* shape contract — the symbolic batch
   dimension ``B`` must survive every layer so the network maps
   ``[B, rows, 2] -> [B, outputs]`` for every Table III cell, and the
   two-input form window scoring uses (``[B, k, 2]`` job rows plus the
   ``N`` node rows the batch shares, ``k + N == rows``; ``k = 2`` for
   DQL, ``2W`` for PG) must reach the same ``[B, outputs]`` — and
   verifies the DRAS agents route all inference through the batched
   ``score_window`` entry point rather than ad-hoc ``network.forward``
   calls (**RPR303**).

The Cori-DQL cell of Table III is internally inconsistent (DESIGN.md
§4), so RPR302 checks that cell against the formula only, never against
the paper literal.

Both rules are *not applicable* (yield nothing) when the anchor modules
are absent from the analyzed project — e.g. when the analyzer is
pointed at a scratch tree in tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.check.project import ModuleInfo, ProjectModel
from repro.check.rules import Finding, Rule, register

CONFIG_MODULE = "repro.core.config"
NETWORK_MODULE = "repro.nn.network"
TABLE3_MODULE = "repro.experiments.table3"

#: the symbolic batch dimension carried through the abstract tensors
BATCH_DIM = "B"

#: rows of one job block (§III-A): the per-sample ``k`` of the two-input
#: ``forward(x, shared=)`` DQL window scoring calls; PG passes one block
#: per window slot
JOB_BLOCK_ROWS = 2

#: agent modules whose inference must route through ``score_window``
AGENT_MODULES = ("repro.core.dras_pg", "repro.core.dras_dql")

#: the only functions allowed to call ``network.forward`` directly in
#: the agent modules: the batched inference entry point and the batched
#: training step (which stacks transitions into one minibatch forward)
FORWARD_CALLERS = ("score_window", "update")

#: Table III cells whose paper literal matches the architecture; the
#: cori-dql literal is documented as inconsistent and is skipped.
PAPER_CONSISTENT_CELLS = ("theta-pg", "theta-dql", "cori-pg")


def _eval(node: ast.expr | None, env: dict[str, float]) -> float | None:
    """Evaluate a constant-foldable expression (None when not static)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            return None
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        # `self.window` inside a property body -> the config value
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return env.get(node.attr)
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _eval(node.operand, env)
        return None if value is None else -value
    if isinstance(node, ast.BinOp):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.FloorDiv) and right:
            return left // right
        if isinstance(node.op, ast.Div) and right:
            return left / right
        if isinstance(node.op, ast.Pow):
            return left ** right
    return None


@dataclass
class AbstractLayer:
    """One statically-interpreted layer of the ``Network([...])`` stack."""

    kind: str                 #: class name: Conv1x2 / Dense / LeakyReLU
    lineno: int
    in_width: int | None = None
    out_width: int | None = None
    bias: bool = True
    #: abstract tensor shapes around the layer; entries are ints,
    #: ``BATCH_DIM`` for the symbolic batch axis, or None for unknown
    in_shape: tuple | None = None
    out_shape: tuple | None = None

    def param_count(self) -> int:
        """Trainable parameters this layer contributes."""
        if self.kind == "Conv1x2":
            return 3  # 1x2 kernel weight (2) + bias (1)
        if self.kind == "Dense":
            assert self.in_width is not None and self.out_width is not None
            return self.in_width * self.out_width + (
                self.out_width if self.bias else 0
            )
        return 0


@dataclass
class NetworkSummary:
    """Result of abstractly interpreting one network configuration."""

    name: str
    dims: dict[str, int]
    layers: list[AbstractLayer] = field(default_factory=list)
    param_total: int | None = None
    output_width: int | None = None
    #: the full abstract output shape, e.g. ``(BATCH_DIM, 50)``
    output_shape: tuple | None = None
    findings: list[str] = field(default_factory=list)


def format_shape(shape: tuple | None) -> str:
    """Render an abstract shape tuple as ``[B, 4460, 2]``-style text."""
    if shape is None:
        return "?"
    return "[" + ", ".join(
        "?" if d is None else str(d) for d in shape
    ) + "]"


# -- configuration extraction ---------------------------------------------

def _class_body(info: ModuleInfo, name: str) -> ast.ClassDef | None:
    return info.classes.get(name)


def _dataclass_defaults(cls: ast.ClassDef) -> dict[str, float]:
    """Numeric dataclass field defaults from annotated assignments."""
    out: dict[str, float] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            value = _eval(stmt.value, {})
            if value is not None:
                out[stmt.target.id] = value
    return out


def _preset_kwargs(cls: ast.ClassDef, method: str) -> dict[str, float] | None:
    """Statically evaluated ``cls(...)`` kwargs inside a preset method."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == method:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "cls"
                ):
                    kwargs: dict[str, float] = {}
                    for kw in node.keywords:
                        if kw.arg is None:
                            continue
                        value = _eval(kw.value, {})
                        if value is not None:
                            kwargs[kw.arg] = value
                    return kwargs
            return None
    return None


def _property_dims(
    cls: ast.ClassDef, prop: str, env: dict[str, float]
) -> dict[str, int] | None:
    """Evaluate a ``*_dims`` property returning ``NetworkDims(...)``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == prop:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
                    dims: dict[str, int] = {}
                    for kw in node.value.keywords:
                        if kw.arg is None:
                            continue
                        value = _eval(kw.value, env)
                        if value is None:
                            return None
                        dims[kw.arg] = int(value)
                    return dims or None
            return None
    return None


def _param_count_formula(cls: ast.ClassDef, dims: dict[str, int]) -> int | None:
    """Evaluate ``NetworkDims.param_count`` for concrete dimensions."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "param_count":
            for node in ast.walk(stmt):
                if isinstance(node, ast.Return):
                    value = _eval(node.value, dict(dims))
                    return None if value is None else int(value)
    return None


def _system_envs(project: ProjectModel) -> dict[str, dict[str, float]] | None:
    """``DRASConfig`` field values of the ``theta()`` / ``cori()`` presets."""
    info = project.module(CONFIG_MODULE)
    if info is None:
        return None
    config_cls = _class_body(info, "DRASConfig")
    if config_cls is None:
        return None
    defaults = _dataclass_defaults(config_cls)
    out: dict[str, dict[str, float]] = {}
    for system in ("theta", "cori"):
        kwargs = _preset_kwargs(config_cls, system)
        if kwargs is None:
            return None
        out[system] = {**defaults, **kwargs}
    return out


def static_table3_configs(project: ProjectModel) -> dict[str, dict[str, int]] | None:
    """The four Table III ``{rows, hidden1, hidden2, outputs}`` dicts.

    Returns ``None`` when ``repro.core.config`` is not in the project or
    its structure defeated static evaluation.
    """
    envs = _system_envs(project)
    if envs is None:
        return None
    config_cls = _class_body(project.module(CONFIG_MODULE), "DRASConfig")
    out: dict[str, dict[str, int]] = {}
    for system, env in envs.items():
        for cell, prop in ((f"{system}-pg", "pg_dims"), (f"{system}-dql", "dql_dims")):
            dims = _property_dims(config_cls, prop, env)
            if dims is None:
                return None
            out[cell] = dims
    return out


def static_formula_counts(
    project: ProjectModel, configs: dict[str, dict[str, int]]
) -> dict[str, int] | None:
    """``NetworkDims.param_count`` evaluated for each Table III cell."""
    info = project.module(CONFIG_MODULE)
    if info is None:
        return None
    dims_cls = _class_body(info, "NetworkDims")
    if dims_cls is None:
        return None
    out: dict[str, int] = {}
    for cell, dims in configs.items():
        count = _param_count_formula(dims_cls, dims)
        if count is None:
            return None
        out[cell] = count
    return out


def paper_param_counts(project: ProjectModel) -> dict[str, int] | None:
    """The ``PAPER_PARAM_COUNTS`` literal from ``experiments/table3.py``."""
    info = project.module(TABLE3_MODULE)
    if info is None:
        return None
    literal = info.constants.get("PAPER_PARAM_COUNTS")
    if not isinstance(literal, ast.Dict):
        return None
    out: dict[str, int] = {}
    for key, value in zip(literal.keys, literal.values):
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, int)
        ):
            out[key.value] = value.value
    return out or None


# -- network interpretation ------------------------------------------------

def _network_layer_calls(info: ModuleInfo) -> list[ast.Call] | None:
    """The layer constructor calls inside ``build_dras_network``."""
    builder = info.functions.get("build_dras_network")
    if builder is None:
        return None
    for node in ast.walk(builder):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Network"
            and node.args
            and isinstance(node.args[0], (ast.List, ast.Tuple))
        ):
            calls = []
            for elt in node.args[0].elts:
                if not isinstance(elt, ast.Call):
                    return None
                calls.append(elt)
            return calls
    return None


def interpret_network(
    project: ProjectModel, name: str, dims: dict[str, int],
    split: tuple[int, int] | None = None,
) -> NetworkSummary | None:
    """Abstractly run one Table III configuration through the builder.

    The input is the abstract tensor ``[B, rows, 2]``; each layer either
    transforms it per the documented semantics or records a finding.
    With ``split=(k, N)`` the input is the two-input form of
    ``Network.forward(x, shared=)`` — ``[B, k, 2]`` per-sample rows plus
    one batch-less ``[N, 2]`` — whose pieces the first ``Dense`` joins,
    so its input width must equal ``k + N``.
    Returns ``None`` when ``repro.nn.network`` is not in the project.
    """
    info = project.module(NETWORK_MODULE)
    if info is None:
        return None
    summary = NetworkSummary(name=name, dims=dims)
    calls = _network_layer_calls(info)
    if calls is None:
        summary.findings.append(
            "could not locate the Network([...]) layer list inside "
            "build_dras_network; RPR301/RPR302 cannot verify the architecture"
        )
        return summary
    env = {k: float(v) for k, v in dims.items()}
    # abstract input: [B, rows, 2] — the batch axis stays symbolic so
    # RPR303 can prove every layer preserves it unchanged
    shape: tuple = (BATCH_DIM, dims.get("rows"), 2)
    #: rows of the batch-less shared piece until the first Dense joins it
    shared_rows = None
    if split is not None:
        shape = (BATCH_DIM, split[0], 2)
        shared_rows = split[1]
        name = f"{name}, split {split[0]} + {split[1]}"
    total = 0
    for call in calls:
        kind = call.func.id if isinstance(call.func, ast.Name) else "?"
        layer = AbstractLayer(kind=kind, lineno=call.lineno, in_shape=shape)
        if kind == "Conv1x2":
            if len(shape) != 3:
                summary.findings.append(
                    f"line {call.lineno}: Conv1x2 expects a 3-D input "
                    f"[B, rows, 2] but receives a {len(shape)}-D tensor"
                )
            shape = shape[:2]  # [B, rows]
        elif kind == "Dense":
            in_w = _eval(call.args[0], env) if len(call.args) > 0 else None
            out_w = _eval(call.args[1], env) if len(call.args) > 1 else None
            bias = True
            for kw in call.keywords:
                if kw.arg == "bias" and isinstance(kw.value, ast.Constant):
                    bias = bool(kw.value.value)
            if in_w is None or out_w is None:
                summary.findings.append(
                    f"line {call.lineno}: Dense dimensions are not statically "
                    "evaluable from the builder arguments"
                )
                return summary
            layer.in_width, layer.out_width, layer.bias = int(in_w), int(out_w), bias
            width = shape[-1] if shape else None
            if shared_rows is not None and isinstance(width, int):
                # y_head @ W[:k] + y_shared @ W[k:] broadcasts over B
                width, shared_rows = width + shared_rows, None
            if len(shape) != 2:
                summary.findings.append(
                    f"line {call.lineno}: Dense expects a 2-D input but "
                    f"receives a {len(shape)}-D tensor"
                )
            elif isinstance(width, int) and int(in_w) != width:
                summary.findings.append(
                    f"line {call.lineno}: Dense input width {int(in_w)} does "
                    f"not match the previous layer's output width {width} "
                    f"({name})"
                )
            shape = (shape[0] if shape else BATCH_DIM, int(out_w))
        elif kind == "LeakyReLU":
            pass  # shape- and parameter-preserving
        else:
            summary.findings.append(
                f"line {call.lineno}: unknown layer type {kind!r}; the "
                "abstract interpreter only knows Conv1x2/Dense/LeakyReLU"
            )
            return summary
        layer.out_shape = shape
        summary.layers.append(layer)
        total += layer.param_count()
    summary.param_total = total
    summary.output_shape = shape
    width = shape[-1] if shape else None
    summary.output_width = width if isinstance(width, int) else None
    expected_out = dims.get("outputs")
    if expected_out is not None and isinstance(width, int) and width != expected_out:
        summary.findings.append(
            f"network output width {width} does not match the configured "
            f"outputs={expected_out} ({name})"
        )
    return summary


def static_table3_counts(project: ProjectModel) -> dict[str, int]:
    """Layer-derived parameter totals per Table III cell (test helper).

    Raises :class:`ValueError` when any stage of the static pipeline
    fails — the numpy-free proof in the test suite relies on this being
    loud rather than silently empty.
    """
    configs = static_table3_configs(project)
    if configs is None:
        raise ValueError("could not statically evaluate Table III configs")
    out: dict[str, int] = {}
    for cell, dims in configs.items():
        summary = interpret_network(project, cell, dims)
        if summary is None or summary.param_total is None:
            raise ValueError(f"could not interpret the network for {cell}")
        if summary.findings:
            raise ValueError(f"{cell}: " + "; ".join(summary.findings))
        out[cell] = summary.param_total
    return out


def _network_anchor(project: ProjectModel) -> tuple[str, int]:
    info = project.module(NETWORK_MODULE)
    assert info is not None
    builder = info.functions.get("build_dras_network")
    return info.path, builder.lineno if builder is not None else 1


@register
class LayerShapeRule(Rule):
    """Inter-layer shape compatibility of ``build_dras_network``."""

    id = "RPR301"
    slug = "nn-shape"
    rationale = (
        "a Dense whose input width disagrees with the previous layer only "
        "fails when the network is actually built; prove compatibility "
        "statically for every Table III configuration"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Interpret every Table III config; report shape breaks."""
        if project.module(NETWORK_MODULE) is None:
            return
        configs = static_table3_configs(project)
        path, lineno = _network_anchor(project)
        if configs is None:
            if project.module(CONFIG_MODULE) is not None:
                yield Finding(path, lineno, 0, (
                    "could not statically evaluate the Table III "
                    "configurations from repro.core.config"
                ))
            return
        seen: set[str] = set()
        for cell, dims in configs.items():
            summary = interpret_network(project, cell, dims)
            if summary is None:
                return
            for message in summary.findings:
                if message not in seen:
                    seen.add(message)
                    yield Finding(path, lineno, 0, message)


@register
class ParamCountRule(Rule):
    """Table III parameter counts, proved from the AST alone."""

    id = "RPR302"
    slug = "nn-params"
    rationale = (
        "the paper's headline 21,890,053-parameter count must hold for the "
        "code as written, not just for the code as last tested"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Compare layer-derived totals to the formula and the paper."""
        if project.module(NETWORK_MODULE) is None or \
                project.module(CONFIG_MODULE) is None:
            return
        configs = static_table3_configs(project)
        if configs is None:
            return  # RPR301 already reports the extraction failure
        path, lineno = _network_anchor(project)
        formula = static_formula_counts(project, configs)
        paper = paper_param_counts(project)
        for cell, dims in configs.items():
            summary = interpret_network(project, cell, dims)
            if summary is None or summary.param_total is None or summary.findings:
                continue  # shape findings already reported by RPR301
            derived = summary.param_total
            if formula is not None and formula.get(cell) not in (None, derived):
                yield Finding(path, lineno, 0, (
                    f"{cell}: layer-derived parameter count {derived:,} "
                    f"disagrees with NetworkDims.param_count = "
                    f"{formula[cell]:,}"
                ))
            if (
                paper is not None
                and cell in PAPER_CONSISTENT_CELLS
                and cell in paper
                and paper[cell] != derived
            ):
                yield Finding(path, lineno, 0, (
                    f"{cell}: layer-derived parameter count {derived:,} "
                    f"disagrees with Table III's {paper[cell]:,}"
                ))


def _forward_call_sites(info: ModuleInfo) -> list[tuple[int, str | None]]:
    """Every ``<expr>.forward(...)`` call with its enclosing function.

    Returns ``(lineno, function_name)`` pairs; the name is ``None`` for
    module-level calls.  Nested functions report the innermost name.
    """
    sites: list[tuple[int, str | None]] = []

    def walk(node: ast.AST, current: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            name = current
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "forward"
            ):
                sites.append((child.lineno, name))
            walk(child, name)

    walk(info.tree, None)
    return sites


def _has_score_window(info: ModuleInfo) -> bool:
    """Whether any class in the module defines a ``score_window`` method."""
    for cls in info.classes.values():
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt.name == "score_window":
                return True
    return False


@register
class BatchedShapeRule(Rule):
    """The batched inference contract, proved from the AST alone."""

    id = "RPR303"
    slug = "nn-batch"
    rationale = (
        "batched scoring is the hot path: the network must map "
        "[B, rows, 2] -> [B, outputs] with the batch axis untouched by "
        "every layer (also from the two-input form window scoring runs: "
        "[B, 2, 2] job rows for DQL, [B, 2W, 2] for PG, plus N node "
        "rows), and the agents must funnel all inference through "
        "the batched score_window entry point so no single-sample "
        "network path can reappear"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Re-derive batched shapes; audit agent forward call sites."""
        yield from self._check_network(project)
        yield from self._check_agents(project)

    def _check_network(self, project: ProjectModel) -> Iterator[Finding]:
        """Assert ``[B, rows, 2] -> [B, outputs]`` for every Table III cell.

        Every cell is interpreted a second time in the two-input form
        its window scoring runs: ``[B, 2, 2]`` job blocks (DQL) or
        ``[B, 2 * window, 2]`` window rows (PG) plus the ``num_nodes``
        node rows the batch shares.
        """
        if project.module(NETWORK_MODULE) is None:
            return
        configs = static_table3_configs(project)
        envs = _system_envs(project)
        if configs is None or envs is None:
            return  # RPR301 already reports the extraction failure
        path, lineno = _network_anchor(project)
        for cell, dims in configs.items():
            summary = interpret_network(project, cell, dims)
            if summary is None or summary.findings:
                continue  # shape breaks are RPR301's findings
            for layer in summary.layers:
                if layer.out_shape is not None and (
                    not layer.out_shape or layer.out_shape[0] != BATCH_DIM
                ):
                    yield Finding(path, layer.lineno, 0, (
                        f"{cell}: {layer.kind} does not preserve the "
                        f"symbolic batch dimension "
                        f"({format_shape(layer.in_shape)} -> "
                        f"{format_shape(layer.out_shape)})"
                    ))
            expected = (BATCH_DIM, dims.get("outputs"))
            if (
                summary.output_shape is not None
                and dims.get("outputs") is not None
                and summary.output_shape != expected
            ):
                yield Finding(path, lineno, 0, (
                    f"{cell}: network maps "
                    f"{format_shape((BATCH_DIM, dims.get('rows'), 2))} to "
                    f"{format_shape(summary.output_shape)}, expected "
                    f"{format_shape(expected)}"
                ))
            system, _, variant = cell.partition("-")
            env = envs[system]
            if "num_nodes" in env and "window" in env:
                # past the first Dense the two forms are one network, so
                # joining the pieces is all the two-input form adds
                blocks = 1 if variant == "dql" else int(env["window"])
                split = (JOB_BLOCK_ROWS * blocks, int(env["num_nodes"]))
                two_input = interpret_network(project, cell, dims, split)
                for message in two_input.findings:
                    yield Finding(path, lineno, 0, message)

    def _check_agents(self, project: ProjectModel) -> Iterator[Finding]:
        """Every agent ``forward`` call must sit in score_window/update."""
        for dotted in AGENT_MODULES:
            info = project.module(dotted)
            if info is None:
                continue  # not applicable on scratch trees
            if not _has_score_window(info):
                yield Finding(info.path, 1, 0, (
                    f"{dotted} defines no batched score_window entry "
                    "point; batched inference has no single place to "
                    "route through"
                ))
            for lineno, func in _forward_call_sites(info):
                if func not in FORWARD_CALLERS:
                    where = f"in {func}()" if func else "at module level"
                    yield Finding(info.path, lineno, 0, (
                        f"network.forward called {where}; route "
                        "inference through the batched score_window "
                        "entry point (or the batched update step)"
                    ))
