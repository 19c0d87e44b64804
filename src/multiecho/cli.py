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

from .baselines import _cs_problems
from .core import (InvalidArgumentError, ReconParams, _number_problems, _params_problems,
                   _seed_problems)
from .defaults import CS_ENGINE, EXPERIMENT, METHOD_NAMES, method_row
from .io import (
    FormatError,
    RunRecord,
    _header_dims,
    _json_bytes,
    _scale_problems,
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
from .metrics import _reference_problems, snr_db, snr_db_per_echo
from .methods import run_method
from .operators import _mask_problems, generate_mask
from .phantom import (EllipseRegion, PhantomSpec, _region_problems, _spec_problems,
                      default_phantom_spec, generate_phantom, simulate_acquisition)
from .tuning import _grid_problems as _sweep_grid_problems, lcurve_greedy

__all__ = ["main", "entry_point"]

def _key(name: str) -> str:
    """The config key of a :class:`ReconParams` field: λ is spelled ``lambda``."""
    return "lambda" if name == "lam" else name


# ReconParams field by config key: the params section's keys.
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
    """The ``params`` section that gives ``p``: every field, by its config key."""
    return {key: getattr(p, field) for key, field in _PARAM_FIELDS.items()}


def _seed(args, cfg: dict, problems: list[str]) -> int:
    """``--seed``, else the config's ``seed``; 0 once its violation is in ``problems``."""
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    found = _seed_problems(seed)
    problems.extend(found)
    return 0 if found else seed


def _section(cfg: dict, name: str, problems: list[str]) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        problems.append(f"{name} section must be an object")
        return {}
    return section


def _engine_kwargs(row, cfg: dict, problems: list[str]) -> dict:
    """Engine keywords of ``row``'s method: those it ships under the config's ``cs`` section."""
    if not row.engine_kwargs:  # only the CS baseline ships any
        return {}
    cs_cfg = _section(cfg, "cs", problems)
    kwargs = {key: cs_cfg.get(key, default) for key, default in row.engine_kwargs.items()}
    found = _cs_problems(**kwargs)
    problems.extend(f"cs: {p}" for p in found)
    return dict(row.engine_kwargs) if found else kwargs


def _params_from_config(base: ReconParams, cfg: dict, problems: list[str]) -> ReconParams:
    """``base`` under the config's ``params`` section; ``base`` again when that breaks the rule.

    A valid configured patch grid is kept even then, so that its fit to the
    dims is checked too.
    """
    overrides = {field: cfg[key] for key, field in _PARAM_FIELDS.items() if key in cfg}
    found = _params_problems({**vars(base), **overrides}, _key)
    problems.extend(f"params: {p}" for p in found)
    if not found:
        return replace(base, **overrides)
    grid = {f: overrides[f] for f in ("patch_size", "patch_stride") if f in overrides}
    return base if _params_problems({**vars(base), **grid}) else replace(base, **grid)


def _engine_inputs(args, cfg: dict, methods: tuple[str, ...], problems: list[str]):
    """``(method, kspace_path, seed, params, engine_kwargs)``, read alike by reconstruct and sweep.

    ``params`` are the method's tuned ones under the config's ``params``
    section, or ``None`` when the method is not one of ``methods``.
    With them the dims of the k-space must pass the method's input-shape rule
    (its row's ``shape_problems``).
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
    params, engine_kwargs = None, {}
    if method in methods:
        row = method_row(method)
        params = _params_from_config(row.params, params_cfg, problems)
        dims = _header_dims(header)  # a header that declares none is left to the loader
        if dims:
            problems.extend(row.shape_problems(*dims[:2], params))
        engine_kwargs = _engine_kwargs(row, cfg, problems)
    return method, kspace_path, seed, params, engine_kwargs


def _dims_disagree(path: Path, ref: Path) -> list[str]:
    """A violation if the headers at ``path`` and ``ref`` both declare dims, and not the same."""
    dims = [_header_dims(path), _header_dims(ref)]
    if None in dims or dims[0] == dims[1]:
        return []
    a, b = ("x".join(map(str, d)) for d in dims)
    return [f"dims disagree: {path} is {a}, {ref} is {b}"]


def _truth_problems(header: Path, rule) -> list[str]:
    """``rule(data)``'s violations by the truth image at ``header``; none if it is absent or
    unreadable, which its load after validation reports."""
    if not header.is_file():
        return []
    try:
        truth = load_mef(header)
    except FormatError:
        return []
    return [f"truth image {header}: {p}" for p in rule(truth.data)]


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
    values = {"angle_deg": 0.0, **{k: v for k, v in region.items() if k in _REGION_KEYS}}
    found = [f"unknown key {k!r}" for k in region if k not in _REGION_KEYS]
    found += [f"missing {k}" for k in _REGION_KEYS if k not in values]
    found += _region_problems(values)
    problems.extend(f"{where}: {p}" for p in found)
    return None if found else EllipseRegion(**values)


def _phantom_spec_from_config(cfg: dict, problems: list[str]) -> PhantomSpec:
    """The config's phantom; the default one when ``problems`` holds any violation."""
    ph = _section(cfg, "phantom", problems)
    values = {key: ph.get(key, EXPERIMENT[key]) for key in ("height", "width", "echoes")}
    values["delta_te_ms"] = ph.get("delta_te_ms", PhantomSpec.delta_te_ms)
    regions = default_phantom_spec().regions
    if "regions" in ph:
        if isinstance(ph["regions"], list):
            regions = tuple(_region_from_config(r, f"phantom: regions[{i}]", problems)
                            for i, r in enumerate(ph["regions"]))
        else:
            problems.append(f"phantom: regions must be a list, got {ph['regions']!r}")
    problems.extend(f"phantom: {p}" for p in _spec_problems(**values))
    if problems:
        return default_phantom_spec()
    return PhantomSpec(**values, regions=regions)


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
    settings = {key: ph.get(key, EXPERIMENT[key]) for key in ("height", "width", "echoes")}
    settings.update((key, mk.get(key, EXPERIMENT[key])) for key in _CONFIG_KEYS["mask"])
    settings["seed"] = _seed(args, cfg, problems)
    problems.extend(f"mask: {p}" for p in _mask_problems(**settings))
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
    problems.extend(_dims_disagree(truth_path.with_suffix(".json"), mask_path))
    sigma = cfg.get("noise_sigma", EXPERIMENT["noise_sigma"])
    problems.extend(_number_problems(noise_sigma=sigma))
    seed = _seed(args, cfg, problems)
    if problems:
        return _fail(problems)
    truth = load_mef(truth_path)
    mask = load_mask(mask_path)
    try:  # values that pass their rules can still give a k-space no file can hold
        kspace = simulate_acquisition(truth, mask, noise_sigma=sigma, seed=seed)
        save_kspace(out / "kspace", kspace)
    except InvalidArgumentError as e:
        return _fail([str(e)])
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
    truth_header = (Path(args.truth) if args.truth else out / "truth").with_suffix(".json")
    if args.truth and not truth_header.is_file():
        problems.append(f"truth image not found: {truth_header}")
    problems.extend(_dims_disagree(truth_header, kspace_path.with_suffix(".json")))
    # The run record holds the SNR of every echo.
    problems.extend(_truth_problems(truth_header, lambda t: _reference_problems(t, per_echo=True)))
    if problems:
        return _fail(problems)

    y = load_kspace(kspace_path)
    truth = load_mef(truth_header) if truth_header.is_file() else None
    t0 = time.perf_counter()
    result = run_method(method, y, params, **engine_kwargs)
    wall = time.perf_counter() - t0

    save_mef(out / f"recon_{method}", result.image)
    config = {"params": params_to_dict(params), **({"cs": engine_kwargs} if engine_kwargs else {})}
    snr = {} if truth is None else {"snr_db": snr_db(truth, result.image),
                                    "snr_db_per_echo": snr_db_per_echo(truth, result.image)}
    record = RunRecord(method=method, seed=seed, config=config, cost_history=result.cost_history,
                       wall_seconds=0.0 if args.sequential else wall, **snr)
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
    problems.extend(f"run directory not found: {d}" for d in dirs if not d.is_dir())
    # Columns are keyed by directory name, so two directories may not share one.
    columns = [d.name for d in dirs]
    problems.extend(f"run directories share the column name {c!r}"
                    for c in sorted({c for c in columns if columns.count(c) > 1}))
    inputs = []  # per column: (truth header, recon header by method)
    for d in filter(Path.is_dir, dirs):
        truth_header = (Path(args.truth) if args.truth else d / "truth").with_suffix(".json")
        if not truth_header.is_file():  # a --truth shared by every directory is named once
            problems.extend({f"truth image not found: {truth_header}"} - set(problems))
            continue
        recons = {m: d / f"recon_{m}.json" for m in METHOD_NAMES
                  if (d / f"recon_{m}.json").is_file()}
        problems.extend(p for path in recons.values() for p in _dims_disagree(truth_header, path))
        problems.extend(set(_truth_problems(truth_header, _reference_problems)) - set(problems))
        inputs.append((truth_header, recons))
    if problems:
        return _fail(problems)
    snr: dict[str, list[float | None]] = {}  # by method, one per column; None: not in that run
    for i, (truth_header, recons) in enumerate(inputs):
        truth = load_mef(truth_header)
        for method, recon_path in recons.items():
            value = snr_db(truth, load_mef(recon_path))
            snr.setdefault(method, [None] * len(columns))[i] = value
    if not snr:
        return _fail(["no recon_<method> images found"])

    name_w = max(len("method"), *map(len, snr))

    def line(name: str, cells) -> str:
        return " | ".join([name.ljust(name_w)]
                          + [cell.rjust(max(8, len(c))) for c, cell in zip(columns, cells)])

    lines = [line("method", columns)]
    lines.append("-" * len(lines[0]))
    lines += [line(m, ["-" if v is None else f"{v:.2f}" for v in snr[m]])
              for m in METHOD_NAMES if m in snr]
    print("\n".join(lines))
    payload = {"columns": columns, "snr_db": {m: dict(zip(columns, snr[m])) for m in snr}}
    (Path(args.out) / "evaluation.json").write_bytes(_json_bytes(payload))
    return 0


def _cmd_export(args) -> int:
    problems: list[str] = []
    cfg = _load_config(args.config, problems)
    method = args.method or cfg.get("method")
    out = Path(args.out)
    recon_header = (out / f"recon_{method}").with_suffix(".json")
    truth_header = (Path(args.truth) if args.truth else out / "truth").with_suffix(".json")
    dims = _header_dims(recon_header)
    if method not in METHOD_NAMES:
        problems.append(f"method must be one of {', '.join(METHOD_NAMES)}, got {method!r}")
    elif not recon_header.is_file():
        problems.append(f"reconstruction not found: {recon_header}")
    else:
        problems.extend(_dims_disagree(truth_header, recon_header))
    if args.truth and not truth_header.is_file():
        problems.append(f"truth image not found: {truth_header}")
    echoes, malformed = [], []
    for token in args.echoes.split(",") if args.echoes else ():
        try:
            echoes.append(int(token))
        except ValueError:
            malformed.append(token)
    if malformed:
        problems.append(f"echo indices must be integers, got {malformed}")
    bad = [e for e in echoes if dims and not 1 <= e <= dims[2]]
    if bad:
        problems.append(f"echo indices out of range 1..{dims[2]}: {bad}")
    if dims and not args.echoes:
        echoes = [e for e in (1, 5, 9, 13) if e <= dims[2]] or list(range(1, dims[2] + 1))
    # The truth's echo planes scale the difference images, and its maximum,
    # no less than theirs, the reconstruction's.
    problems.extend(_truth_problems(truth_header, lambda t: [
        f"echo {e}: {p}" for e in echoes if 1 <= e <= t.shape[2]
        for p in _scale_problems(t[:, :, e - 1])]))
    if problems:
        return _fail(problems)
    recon = load_mef(recon_header)
    truth = load_mef(truth_header) if truth_header.is_file() else None
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
        args, cfg, tuple(m for m in METHOD_NAMES if method_row(m).weights), problems)
    grids_cfg = _section(_section(cfg, "sweep", problems), "grids", problems)
    default_grids = {
        "mu": [0.05, 0.15, 0.5, 1.5, 5.0],
        "lam": [0.003, 0.01, 0.03, 0.1, 0.3, 1.0],
        "gamma": [0.03, 0.1, 0.3, 1.0, 3.0],
    }
    grids = {}
    for name in (method_row(method).weights if base else ()):
        key = _key(name)  # only mu and gamma must be > 0, and their keys are their names
        grids[name] = grids_cfg.get(key, default_grids[name])
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

    def command(name, func, help, method_flag=False, seed_flag=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", required=True, help="run directory for inputs/outputs")
        p.add_argument("--config", help="JSON config file (flags win over config)")
        if seed_flag:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--sequential", action="store_true",
                       help="deterministic mode: byte-identical reruns")
        if method_flag:
            p.add_argument("--method", help=f"one of: {', '.join(METHOD_NAMES)}")
        return p

    command("phantom", _cmd_phantom, "write the synthetic ground-truth image")
    command("mask", _cmd_mask, "write a line-sampling mask", seed_flag=True)
    p = command("simulate", _cmd_simulate, "sample k-space from the ground truth", seed_flag=True)
    p.add_argument("--truth", help="path to the ground-truth image (default: OUT/truth)")
    p.add_argument("--mask", help="path to the mask JSON (default: OUT/mask.json)")
    p = command("reconstruct", _cmd_reconstruct, "run one reconstruction method",
                method_flag=True, seed_flag=True)
    p.add_argument("--kspace", help="path base of the k-space files (default: OUT/kspace)")
    p.add_argument("--truth", help="ground-truth image for SNR reporting")
    p = command("evaluate", _cmd_evaluate, "print/write an SNR table of finished runs")
    p.add_argument("--truth", help="ground-truth image (default: per-directory truth)")
    p.add_argument("--runs", nargs="*", help="additional run directories (table columns)")
    p = command("export", _cmd_export, "write PGM images of selected echoes", method_flag=True)
    p.add_argument("--truth", help="ground-truth image for difference images")
    p.add_argument("--echoes", help="comma-separated 1-based echo list (default: 1,5,9,13)")
    p = command("sweep", _cmd_sweep, "greedy L-curve parameter selection",
                method_flag=True, seed_flag=True)
    p.add_argument("--kspace", help="path base of the k-space files (default: OUT/kspace)")
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
