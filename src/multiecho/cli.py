"""Command-line pipeline: phantom -> mask -> simulate -> reconstruct -> evaluate/export.

Every command reads an optional JSON config (flags win over config values),
validates it (reporting *all* violations at once), writes its outputs plus a
fully resolved ``config_<command>.json`` next to them, and is idempotent: the
same config and seed reproduce the same bytes.  With ``--sequential`` the
wall-clock field of run records is zeroed so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from .baselines import _check_haar_dims
from .core import InvalidArgumentError, ReconParams, _is_integer, _is_number, _params_problems
from .defaults import CS_ENGINE, EXPERIMENT, tuned_params
from .io import (
    FormatError,
    RunRecord,
    _json_bytes,
    export_difference,
    export_pgm,
    load_kspace,
    load_mask,
    load_mef,
    save_kspace,
    save_mask,
    save_mef,
    save_run_record,
)
from .metrics import snr_db, snr_db_per_echo
from .methods import METHOD_NAMES, run_method
from .operators import _grid_problems, _mask_problems, generate_mask
from .phantom import (EllipseRegion, PhantomSpec, _noise_problems, _region_problems,
                      _spec_problems, default_phantom_spec, generate_phantom, simulate_acquisition)
from .tuning import TUNABLE_PARAMS, _grid_problems as _sweep_grid_problems, lcurve_greedy

__all__ = ["main", "entry_point"]

def _key(name: str) -> str:
    """The config key of a :class:`ReconParams` field: λ is spelled ``lambda``."""
    return "lambda" if name == "lam" else name


# ReconParams field by config key; the params section holds exactly these keys.
_PARAM_FIELDS = {_key(f.name): f.name for f in fields(ReconParams)}

# The keys a config may hold, by section ("" is the root): what any command reads.
_CONFIG_KEYS = {
    "": ("method", "seed", "noise_sigma", "phantom", "mask", "params", "cs", "sweep"),
    "phantom": tuple(f.name for f in fields(PhantomSpec)),
    "mask": ("lines_per_echo", "dense_fraction", "per_echo_distinct"),
    "params": tuple(_PARAM_FIELDS), "cs": tuple(CS_ENGINE),
    "sweep": ("grids",), "sweep.grids": ("mu", "lambda", "gamma"),
}
_REGION_KEYS = tuple(f.name for f in fields(EllipseRegion))


def params_to_dict(p: ReconParams) -> dict:
    return {_key(name): value for name, value in asdict(p).items()}


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false"}
_KIND_CHECKS = {int: _is_integer, float: _is_number, bool: lambda v: isinstance(v, bool)}


def _value(section: dict, key: str, default, kind: type, where: str, problems: list[str]):
    """``section[key]`` (``default`` when absent) as ``kind``: int, float or bool.

    A value of another JSON type (a string, a list, a fractional "integer")
    is reported in ``problems`` and replaced by ``default``, so that reading
    goes on and every violation of the config is listed.
    """
    value = section.get(key, default)
    if not _KIND_CHECKS[kind](value):
        problems.append(f"{where}{key} must be {_KIND_NAMES[kind]}, got {value!r}")
        return default
    return kind(value)


def _seed(args, cfg: dict, problems: list[str]) -> int:
    seed = args.seed if args.seed is not None else _value(cfg, "seed", 0, int, "", problems)
    if seed < 0:
        problems.append(f"seed must be >= 0, got {seed}")
        return 0
    return seed


def _section(cfg: dict, name: str, problems: list[str]) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        problems.append(f"{name} section must be an object")
        return {}
    return section


def _engine_kwargs(method, cfg: dict, problems: list[str]) -> dict:
    """Engine keywords of ``method``: ``CS_ENGINE`` under the config's ``cs`` section."""
    if method != "cs_analysis":
        return {}
    cs_cfg = _section(cfg, "cs", problems)
    return {key: _value(cs_cfg, key, default, int, "cs: ", problems)
            for key, default in CS_ENGINE.items()}


def _params_from_config(base: ReconParams, cfg: dict, problems: list[str]) -> ReconParams:
    overrides = {}
    for key in cfg:
        field = _PARAM_FIELDS.get(key)
        if field is None:  # reported by _load_config
            continue
        # Integer budgets have integer defaults; the weights are floats.
        default = getattr(base, field)
        kind = int if isinstance(default, int) else float
        overrides[field] = _value(cfg, key, default, kind, "params: ", problems)
    found = _params_problems({**vars(base), **overrides}, _key)
    problems.extend(f"params: {p}" for p in found)
    return base if found else replace(base, **overrides)


def _engine_inputs(args, cfg: dict, methods: tuple[str, ...], problems: list[str]):
    """``(method, kspace_path, seed, params, engine_kwargs)``, read alike by reconstruct and sweep.

    ``params`` are the method's tuned ones at the seed under the config's
    ``params`` section, or ``None`` when the method is not one of ``methods``.
    They must fit the dims of the k-space: patch grids must fit (the periodic
    one with a stride dividing both dims) and the one-level Haar transform
    needs even dims.  A k-space header that cannot be read is left to the loader.
    """
    method = args.method or cfg.get("method")
    if method not in methods:
        problems.append(f"method must be one of {', '.join(methods)}, got {method!r}")
    kspace_path = Path(args.kspace) if args.kspace else Path(args.out) / "kspace"
    header = kspace_path.with_suffix(".json")
    if not header.is_file():
        problems.append(f"k-space not found: {header}")
    seed = _seed(args, cfg, problems)
    params_cfg = _section(cfg, "params", problems)
    params = None
    if method in methods:
        params = _params_from_config(replace(tuned_params(method), seed=seed), params_cfg,
                                     problems)
        try:
            mask = load_mask(header) if method != "zero_filled" else None
        except FormatError:
            mask = None
        if mask is not None and method == "cs_analysis":
            try:
                _check_haar_dims((mask.height, mask.width))
            except InvalidArgumentError as e:
                problems.append(f"{method}: {e}")
        elif mask is not None:
            problems.extend(f"params: {p}" for p in _grid_problems(
                mask.height, mask.width, params.patch_size, params.patch_stride,
                periodic=method == "tl_rowsparse"))
    return method, kspace_path, seed, params, _engine_kwargs(method, cfg, problems)


def _load_config(path: str | None, problems: list[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        problems.append(f"config file not found: {p}")
        return {}
    try:
        cfg = json.loads(p.read_bytes())
    except (ValueError, RecursionError) as e:  # ValueError: bad UTF-8 or JSON
        problems.append(f"config is not valid JSON: {e}")
        return {}
    if not isinstance(cfg, dict):
        problems.append("config root must be a JSON object")
        return {}
    for path, known in _CONFIG_KEYS.items():
        section = cfg
        for name in filter(None, path.split(".")):
            section = section.get(name) if isinstance(section, dict) else None
        if isinstance(section, dict):
            where = f"{path}: " if path else ""
            problems.extend(f"{where}unknown key {k!r}" for k in section if k not in known)
    return cfg


def _region_from_config(region, where: str, problems: list[str]) -> EllipseRegion | None:
    """One ``phantom.regions`` entry, or ``None`` with its violations in ``problems``."""
    if not isinstance(region, dict):
        problems.append(f"{where} must be an object, got {region!r}")
        return None
    before = len(problems)
    problems.extend(f"{where}: unknown key {k!r}" for k in region if k not in _REGION_KEYS)
    values = {}  # the fields of the right type, whose value rules are checked below
    for key in _REGION_KEYS:
        n = len(problems)
        if key in ("center", "axes"):
            pair = region.get(key)
            if isinstance(pair, list) and len(pair) == 2:
                value = tuple(_value({key: v}, key, 0.0, float, f"{where}: ", problems)
                              for v in pair)
            else:
                problems.append(f"{where}: {key} must be a list of two numbers, got {pair!r}")
        elif key in region or key == "angle_deg":
            value = _value(region, key, 0.0, float, f"{where}: ", problems)
        else:
            problems.append(f"{where}: missing {key}")
        if len(problems) == n:
            values[key] = value
    problems.extend(f"{where}: {p}" for p in _region_problems(values))
    return EllipseRegion(**values) if len(problems) == before else None


def _phantom_spec_from_config(cfg: dict, problems: list[str]) -> PhantomSpec:
    """The config's phantom; the default one when ``problems`` holds any violation."""
    ph = _section(cfg, "phantom", problems)
    dims = {key: _value(ph, key, EXPERIMENT[key], int, "phantom: ", problems)
            for key in ("height", "width", "echoes")}
    delta_te = _value(ph, "delta_te_ms", PhantomSpec.delta_te_ms, float, "phantom: ", problems)
    regions = default_phantom_spec().regions
    if "regions" in ph:
        if isinstance(ph["regions"], list):
            regions = tuple(_region_from_config(r, f"phantom: regions[{i}]", problems)
                            for i, r in enumerate(ph["regions"]))
        else:
            problems.append(f"phantom: regions must be a list, got {ph['regions']!r}")
    problems.extend(f"phantom: {p}" for p in _spec_problems(**dims, delta_te_ms=delta_te))
    if problems:
        return default_phantom_spec()
    return PhantomSpec(**dims, delta_te_ms=delta_te, regions=regions)


def _write_resolved(out_dir: Path, name: str, resolved: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"config_{name}.json").write_bytes(_json_bytes(resolved))


def _fail(problems: list[str]) -> int:
    print(f"error: {'; '.join(problems)}", file=sys.stderr)
    return 2


def _cmd_phantom(args) -> int:
    problems: list[str] = []
    cfg = _load_config(args.config, problems)
    spec = _phantom_spec_from_config(cfg, problems)
    if problems:
        return _fail(problems)
    out = Path(args.out)
    image = generate_phantom(spec)
    save_mef(out / "truth", image)
    _write_resolved(out, "phantom", {"phantom": asdict(spec)})
    print(f"wrote {out / 'truth.json'} ({spec.height}x{spec.width}x{spec.echoes})")
    return 0


def _mask_settings(cfg: dict, args, problems: list[str]) -> dict:
    """The keyword arguments of :func:`generate_mask` that the config and ``--seed`` give."""
    mk = _section(cfg, "mask", problems)
    ph = _section(cfg, "phantom", problems)
    settings = {key: _value(ph, key, EXPERIMENT[key], int, "phantom: ", problems)
                for key in ("height", "width", "echoes")}
    settings.update(
        (key, _value(mk, key, EXPERIMENT[key], kind, "mask: ", problems))
        for key, kind in (("lines_per_echo", int), ("dense_fraction", float),
                          ("per_echo_distinct", bool))
    )
    settings["seed"] = _seed(args, cfg, problems)
    problems.extend(f"mask: {p}" for p in _mask_problems(
        settings["height"], settings["width"], settings["lines_per_echo"],
        settings["echoes"], settings["dense_fraction"]))
    return settings


def _cmd_mask(args) -> int:
    problems: list[str] = []
    cfg = _load_config(args.config, problems)
    settings = _mask_settings(cfg, args, problems)
    if problems:
        return _fail(problems)
    out = Path(args.out)
    mask = generate_mask(**settings)
    save_mask(out / "mask.json", mask)
    _write_resolved(out, "mask", {"mask": settings})
    print(f"wrote {out / 'mask.json'} ({settings['lines_per_echo']}/{settings['height']} lines)")
    return 0


def _cmd_simulate(args) -> int:
    problems: list[str] = []
    cfg = _load_config(args.config, problems)
    out = Path(args.out)
    truth_path = Path(args.truth) if args.truth else out / "truth"
    mask_path = Path(args.mask) if args.mask else out / "mask.json"
    if not truth_path.with_suffix(".json").is_file():
        problems.append(f"truth image not found: {truth_path.with_suffix('.json')}")
    if not mask_path.is_file():
        problems.append(f"mask not found: {mask_path}")
    sigma = _value(cfg, "noise_sigma", EXPERIMENT["noise_sigma"], float, "", problems)
    problems.extend(_noise_problems(sigma))
    seed = _seed(args, cfg, problems)
    if problems:
        return _fail(problems)
    truth = load_mef(truth_path)
    mask = load_mask(mask_path)
    kspace = simulate_acquisition(truth, mask, noise_sigma=sigma, seed=seed)
    save_kspace(out / "kspace", kspace)
    _write_resolved(out, "simulate", {
        "truth": str(truth_path), "mask": str(mask_path),
        "noise_sigma": sigma, "seed": seed,
    })
    print(f"wrote {out / 'kspace.kbin'} (sigma={sigma}, seed={seed})")
    return 0


def _cmd_reconstruct(args) -> int:
    problems: list[str] = []
    cfg = _load_config(args.config, problems)
    method, kspace_path, seed, params, engine_kwargs = _engine_inputs(
        args, cfg, METHOD_NAMES, problems)
    out = Path(args.out)
    truth_path = Path(args.truth) if args.truth else out / "truth"
    have_truth = truth_path.with_suffix(".json").is_file()
    if args.truth and not have_truth:
        problems.append(f"truth image not found: {truth_path.with_suffix('.json')}")
    if problems:
        return _fail(problems)

    y = load_kspace(kspace_path)
    t0 = time.perf_counter()
    result = run_method(method, y, params, **engine_kwargs)
    wall = time.perf_counter() - t0

    save_mef(out / f"recon_{method}", result.image)
    config = {"params": params_to_dict(params), **({"cs": engine_kwargs} if engine_kwargs else {})}
    record = RunRecord(
        method=method,
        seed=seed,
        config=config,
        cost_history=result.cost_history,
        wall_seconds=0.0 if args.sequential else wall,
    )
    if have_truth:
        truth = load_mef(truth_path)
        record.snr_db = snr_db(truth, result.image)
        record.snr_db_per_echo = snr_db_per_echo(truth, result.image)
    save_run_record(out / f"record_{method}.json", record)
    _write_resolved(out, f"reconstruct_{method}", {
        "method": method, "seed": seed, "sequential": bool(args.sequential),
        "kspace": str(kspace_path), **config,
    })
    msg = f"wrote {out / f'recon_{method}.json'}"
    if record.snr_db is not None:
        msg += f" (SNR {record.snr_db:.2f} dB)"
    print(msg)
    return 0


def _cmd_evaluate(args) -> int:
    problems: list[str] = []
    _load_config(args.config, problems)  # reads no key, but a bad file is still an error
    dirs = [Path(args.out)] + [Path(d) for d in (args.runs or [])]
    for d in dirs:
        if not d.is_dir():
            problems.append(f"run directory not found: {d}")
    # Columns are keyed by directory name, so two directories may not share one.
    columns = [d.name for d in dirs]
    problems.extend(f"run directories share the column name {c!r}"
                    for c in sorted({c for c in columns if columns.count(c) > 1}))
    if problems:
        return _fail(problems)
    table: dict[str, dict[str, float | None]] = {}
    for d in dirs:
        truth_path = Path(args.truth) if args.truth else d / "truth"
        if not truth_path.with_suffix(".json").is_file():
            problems.append(f"truth image not found in {d}")
            continue
        truth = load_mef(truth_path)
        for method in METHOD_NAMES:
            recon_path = d / f"recon_{method}.json"
            if not recon_path.is_file():
                continue
            value = snr_db(truth, load_mef(recon_path))
            table.setdefault(method, {})[d.name] = value
    if problems:
        return _fail(problems)
    if not table:
        return _fail(["no recon_<method> images found"])

    name_w = max(len("method"), max(len(m) for m in table))
    header = "method".ljust(name_w) + " | " + " | ".join(c.rjust(max(8, len(c))) for c in columns)
    rule = "-" * len(header)
    lines = [header, rule]
    for method in METHOD_NAMES:
        if method not in table:
            continue
        cells = []
        for c in columns:
            v = table[method].get(c)
            cells.append(("-" if v is None else f"{v:.2f}").rjust(max(8, len(c))))
        lines.append(method.ljust(name_w) + " | " + " | ".join(cells))
    print("\n".join(lines))
    payload = {
        "columns": columns,
        "snr_db": {m: {c: table[m].get(c) for c in columns} for m in table},
    }
    (Path(args.out) / "evaluation.json").write_bytes(_json_bytes(payload))
    return 0


def _cmd_export(args) -> int:
    problems: list[str] = []
    cfg = _load_config(args.config, problems)
    method = args.method or cfg.get("method")
    out = Path(args.out)
    recon_path = out / f"recon_{method}"
    if method not in METHOD_NAMES:
        problems.append(f"method must be one of {', '.join(METHOD_NAMES)}, got {method!r}")
    elif not recon_path.with_suffix(".json").is_file():
        problems.append(f"reconstruction not found: {recon_path.with_suffix('.json')}")
    if problems:
        return _fail(problems)
    recon = load_mef(recon_path)
    truth_path = Path(args.truth) if args.truth else out / "truth"
    truth = load_mef(truth_path) if truth_path.with_suffix(".json").is_file() else None

    if args.echoes:
        echoes, malformed = [], []
        for token in args.echoes.split(","):
            try:
                echoes.append(int(token))
            except ValueError:
                malformed.append(token)
        if malformed:
            problems.append(f"echo indices must be integers, got {malformed}")
        bad = [e for e in echoes if not 1 <= e <= recon.echoes]
        if bad:
            problems.append(f"echo indices out of range 1..{recon.echoes}: {bad}")
        if problems:
            return _fail(problems)
    else:
        echoes = [e for e in (1, 5, 9, 13) if e <= recon.echoes] or list(
            range(1, recon.echoes + 1)
        )
    norm = float(truth.data.max()) if truth is not None else None
    written = []
    for e in echoes:
        plane = recon.data[:, :, e - 1]
        p = export_pgm(out / f"recon_{method}_echo{e}.pgm", plane, normalization=norm)
        written.append(p.name)
        if truth is not None:
            p = export_difference(
                out / f"diff_{method}_echo{e}.pgm", truth.data[:, :, e - 1], plane
            )
            written.append(p.name)
    print(f"wrote {', '.join(written)}")
    return 0


def _cmd_sweep(args) -> int:
    problems: list[str] = []
    cfg = _load_config(args.config, problems)
    # Tune the engine that reconstruct ships with the same config.
    method, kspace_path, seed, base, engine_kwargs = _engine_inputs(
        args, cfg, tuple(TUNABLE_PARAMS), problems)
    grids_cfg = _section(_section(cfg, "sweep", problems), "grids", problems)
    default_grids = {
        "mu": [0.05, 0.15, 0.5, 1.5, 5.0],
        "lam": [0.003, 0.01, 0.03, 0.1, 0.3, 1.0],
        "gamma": [0.03, 0.1, 0.3, 1.0, 3.0],
    }
    grids = {}
    for name in (TUNABLE_PARAMS[method] if base else ()):
        key = _key(name)
        grid = grids_cfg.get(key, default_grids[name])
        if not isinstance(grid, list):
            problems.append(f"sweep: grid {key} must be a list, got {grid!r}")
            continue
        n = len(problems)
        grids[name] = [_value({key: v}, key, 0.0, float, "sweep: grid ", problems)
                       for v in grid]
        if len(problems) == n:
            problems.extend(f"sweep: {p}" for p in _sweep_grid_problems(key, grids[name]))
    if problems:
        return _fail(problems)

    out = Path(args.out)
    y = load_kspace(kspace_path)
    params, trace = lcurve_greedy(y, method, grids, base, **engine_kwargs)
    (out / f"params_{method}.json").write_bytes(_json_bytes(params_to_dict(params)))
    payload = [
        {"param": _key(p.param), "value": p.value,
         "residual_norm": p.residual_norm, "penalty": p.penalty}
        for p in trace
    ]
    (out / f"sweep_{method}.json").write_bytes(_json_bytes(payload))
    _write_resolved(out, f"sweep_{method}", {
        "method": method, "seed": seed,
        "grids": {_key(k): v for k, v in grids.items()},
        **({"cs": engine_kwargs} if engine_kwargs else {}),
    })
    chosen = {k: v for k, v in params_to_dict(params).items() if k in ("mu", "lambda", "gamma")}
    print(f"wrote {out / f'params_{method}.json'} (chosen: {chosen})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiecho",
        description="Multi-echo MRI reconstruction from undersampled k-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method_flag=False, seed_flag=False):
        p.add_argument("--out", required=True, help="run directory for inputs/outputs")
        p.add_argument("--config", help="JSON config file (flags win over config)")
        if seed_flag:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--sequential", action="store_true",
                       help="deterministic mode: byte-identical reruns")
        if method_flag:
            p.add_argument("--method", help=f"one of: {', '.join(METHOD_NAMES)}")

    p = sub.add_parser("phantom", help="write the synthetic ground-truth image")
    common(p)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("mask", help="write a line-sampling mask")
    common(p, seed_flag=True)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("simulate", help="sample k-space from the ground truth")
    common(p, seed_flag=True)
    p.add_argument("--truth", help="path to the ground-truth image (default: OUT/truth)")
    p.add_argument("--mask", help="path to the mask JSON (default: OUT/mask.json)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="run one reconstruction method")
    common(p, method_flag=True, seed_flag=True)
    p.add_argument("--kspace", help="path base of the k-space files (default: OUT/kspace)")
    p.add_argument("--truth", help="ground-truth image for SNR reporting")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("evaluate", help="print/write an SNR table of finished runs")
    common(p)
    p.add_argument("--truth", help="ground-truth image (default: per-directory truth)")
    p.add_argument("--runs", nargs="*", help="additional run directories (table columns)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("export", help="write PGM images of selected echoes")
    common(p, method_flag=True)
    p.add_argument("--truth", help="ground-truth image for difference images")
    p.add_argument("--echoes", help="comma-separated 1-based echo list (default: 1,5,9,13)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("sweep", help="greedy L-curve parameter selection")
    common(p, method_flag=True, seed_flag=True)
    p.add_argument("--kspace", help="path base of the k-space files (default: OUT/kspace)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
