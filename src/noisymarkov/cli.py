"""Command-line entry point: probs, decay, gfun, bench, simulate.

Configuration comes from an optional plain-text key=value file (``--grid-file``)
with command-line flags taking precedence; ``Settings.get`` reads and parses
every value. Every emitted CSV starts with ``# key=value`` lines carrying each
value the command read from a flag or the file, and what it ran with besides,
so a run can be reproduced from its output alone; a flag or key the command
did not read is not recorded (``bench`` reads ``k`` only where DUDE runs), and
a list names each value once. Data sections are deterministic for a fixed
configuration; wall-clock runtimes appear only in the JSON-lines records.

Exit codes: 0 success, 2 configuration error, 3 numerical-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .denoise import (
    MAX_CONTEXT_LENGTH,
    bfp_denoise,
    bit_error_rate,
    default_context_length,
    dude_detail,
    forward_backward,
    gibbs_detail,
    map_denoise,
)
from .errors import DivisionNearZeroError, NoisyMarkovError, OutOfRangeError
from .model import ChannelParams, check_count, validate_params
from .oracle import brute_force_cylinder, code_to_spins
from .simulate import GENERATOR_NAME, _overwrite, generate_dataset, save_path_csv, save_spins
from .thermo import g_continued_fraction_detail, g_function, variation_estimate
from .transfer import cylinder_prob, decay_rate_bound, required_context

SCHEMA_VERSION = "noisymarkov-cli-v1"
BER_SCHEMA_VERSION = "noisymarkov-ber-v1"  # each record of bench's ber.jsonl

DEFAULT_DECAY_GRID = [(p, e) for p in (0.1, 0.2, 0.3, 0.45) for e in (0.05, 0.2, 0.35, 0.45)]
DEFAULT_BENCH_GRID = [(0.05, 0.2), (0.10, 0.2), (0.15, 0.2), (0.20, 0.2)]

#: Enumerating all words of a length beyond this is pointless for a CSV report.
MAX_ENUMERATION_LENGTH = 12


class ConfigError(NoisyMarkovError):
    """Bad or missing configuration; mapped to exit code 2."""


def load_config(path: str | Path) -> dict[str, str]:
    """Read a plain-text key=value configuration file ('#' starts a comment)."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _spins_to_text(symbols) -> str:
    return "".join("+" if s == 1 else "-" for s in symbols)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _csv_lines(meta: dict, header: list[str], rows):
    yield f"# schema={SCHEMA_VERSION}\n"
    for key in sorted(meta):
        yield f"# {key}={meta[key]}\n"
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(str(v) for v in row) + "\n"


def _write_csv(path: Path, meta: dict, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    _overwrite(path, (line.encode() for line in _csv_lines(meta, header, rows)))


def _named_once(items: list) -> list:
    """``items``, refused if it names a value twice."""
    if len(set(items)) < len(items):
        raise ConfigError("must name each value once")
    return items


def _list(raw: str, item=str) -> list:
    """Values separated by commas or spaces, each read by ``item`` and named once."""
    items = [item(tok) for tok in raw.replace(" ", ",").split(",") if tok]
    if not items:
        raise ConfigError("must be a nonempty list")
    return _named_once(items)


def _int_list(raw: str) -> list[int]:
    return _list(raw, int)


def _grid(raw: str) -> list[tuple[float, float]]:
    """(p, eps) cells written p:eps, separated by spaces and each named once."""
    cells = []
    for token in raw.split():
        p, _, eps = token.partition(":")
        try:
            cells.append((float(p), float(eps)))
        except ValueError:
            raise ConfigError(f"has a bad grid cell {token!r}; expected p:eps") from None
    if not cells:
        raise ConfigError("must be nonempty")
    return _named_once(cells)


class Settings:
    """The settings of one command: each from its flag, else the configuration file, else a default.

    ``get`` reads and parses every setting, and records each value it took
    from a flag or the file; ``meta`` writes those values into the output's
    header, so a flag or key the command did not read is not recorded.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.file_values = load_config(args.grid_file) if args.grid_file else {}
        self.args = args
        self.read: dict[str, str] = {}

    def get(self, key: str, default=None, parse=str):
        """``key`` from its flag, else the file, parsed by ``parse``; else ``default``, unparsed; required without one."""
        flag = getattr(self.args, key, None)
        raw = self.file_values.get(key) if flag is None else str(flag)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required parameter: {key}")
            return default
        try:
            value = parse(raw)
        except ValueError as exc:  # float, int and _int_list refuse by ValueError
            reason = {float: "is not a number", int: "is not an integer", _int_list: "is not a list of integers"}
            raise ConfigError(f"parameter {key}={raw!r} {reason[parse]}") from exc
        except ConfigError as exc:
            raise ConfigError(f"parameter {key}={raw!r} {exc}") from exc
        self.read[key] = raw
        return value

    def cell(self) -> tuple[float, float]:
        return self.get("p", parse=float), self.get("eps", parse=float)

    def grid(self, default: list[tuple[float, float]]) -> list[tuple[float, float]]:
        """The (p, eps) cells to run.

        --p or --eps narrows the grid to the one cell (p, eps), taking the
        other coordinate from its flag or else the file, and is refused
        without it. Without either flag the file's grid runs, and wins over
        the file's p and eps; else the one cell of the file's p and eps, else
        ``default``.
        """
        flags = [name for name in ("p", "eps") if getattr(self.args, name) is not None]
        if not flags and "grid" in self.file_values:
            return self.get("grid", parse=_grid)
        if {"p", "eps"} <= {*flags, *self.file_values}:
            return [self.cell()]
        if flags:
            other = "eps" if flags == ["p"] else "p"
            raise ConfigError(f"--{flags[0]} narrows the grid to one cell and needs --{other} as well")
        return default

    def meta(self, **extra) -> dict:
        """An output's header: version, generator, each value read from a flag or the file, and ``extra``."""
        return {"version": __version__, "generator": GENERATOR_NAME, **self.read, **extra}


def cmd_probs(cfg: Settings) -> int:
    """Enumerate all words of a given length; cross-check the two probability routes."""
    length = cfg.get("n", 2, int)
    if not 1 <= length <= MAX_ENUMERATION_LENGTH:
        raise ConfigError(f"enumeration length must be in 1..{MAX_ENUMERATION_LENGTH}, got {length}")
    params = validate_params(*cfg.cell())
    out = Path(cfg.get("out", "probs.csv"))
    rows = []
    total = 0.0
    max_rel_err = 0.0
    for code in range(1 << length):
        word = code_to_spins(code, length)
        q_transfer = cylinder_prob(word, params)
        q_brute = brute_force_cylinder(word, params)
        rel_err = abs(q_transfer - q_brute) / q_brute if q_brute else np.inf  # an underflowed oracle fails the check
        max_rel_err = max(max_rel_err, rel_err)
        total += q_transfer
        rows.append((_spins_to_text(word), _fmt(q_transfer), _fmt(q_brute), _fmt(rel_err)))
    _write_csv(out, cfg.meta(sum=_fmt(total), max_rel_err=_fmt(max_rel_err)),
               ["word", "q_transfer", "q_bruteforce", "rel_err"], rows)
    print(f"probs: wrote {out} ({1 << length} words, sum={total:.12f}, max rel err={max_rel_err:.3e})")
    if max_rel_err >= 1e-12 or abs(total - 1.0) >= 1e-10:
        print("probs: numerical check FAILED", file=sys.stderr)
        return 3
    return 0


def _empirical_variation_rate(params: ChannelParams, samples: int, seed: int) -> tuple[float, int]:
    """Least-squares per-step decay rate of the adversarial variation of g.

    The fit runs over n = 2..n_hi with n_hi chosen so the certified bound
    C * rho^n stays above the double-precision measurement floor; a plain
    two-point ratio would carry an O(1/gap) prefactor bias, a regression over
    the whole window averages it out. Without two positive variations to fit
    the rate is nan, unless rho = 0.
    """
    bound = decay_rate_bound(params)
    if bound.rho == 0.0:
        return 0.0, 0
    n_hi = 2
    while n_hi < 14 and bound.C * bound.rho ** (n_hi + 1) > 1e-12:
        n_hi += 1
    ns = np.arange(2, n_hi + 1)
    values = np.array([variation_estimate(int(n), samples, params, seed) for n in ns])
    mask = values > 0.0
    if int(mask.sum()) < 2:
        return float("nan"), int(ns[-1])
    slope = np.polyfit(ns[mask], np.log(values[mask]), 1)[0]
    return float(np.exp(slope)), int(ns[-1])


def cmd_decay(cfg: Settings) -> int:
    """Tabulate naive and improved decay bounds plus an empirical variation rate."""
    grid = cfg.grid(DEFAULT_DECAY_GRID)
    seed = cfg.get("seed", 0, int)
    samples = cfg.get("samples", 48, int)
    out = Path(cfg.get("out", "decay.csv"))
    rows = []
    over = unfit = 0
    for p, eps in grid:
        params = validate_params(p, eps)
        bound = decay_rate_bound(params)
        rate, n_hi = _empirical_variation_rate(params, samples, seed)
        ok = rate <= bound.rho + 1e-12  # false where there was no fit
        over += rate > bound.rho + 1e-12
        unfit += bool(np.isnan(rate))
        rows.append(
            (
                _fmt(p), _fmt(eps), _fmt(abs(1.0 - 2.0 * p)), _fmt(bound.rho), bound.regime,
                _fmt(bound.C), _fmt(rate), str(n_hi), str(ok).lower(),
            )
        )
    _write_csv(out, cfg.meta(samples=samples),
               ["p", "eps", "naive", "rho", "regime", "C", "empirical_rate", "fit_n_hi", "ok"],
               rows)
    print(f"decay: wrote {out} ({len(rows)} cells)")
    if over or unfit:
        print(f"decay: empirical rate exceeded the certified bound at {over} cell(s), and had no fit "
              f"(fewer than two positive variations) at {unfit}", file=sys.stderr)
        return 3
    return 0


def cmd_gfun(cfg: Settings) -> int:
    """Cross-validate the recursion and continued-fraction forms of g."""
    params = validate_params(*cfg.cell())
    count = cfg.get("n", 50, int)
    depth = cfg.get("depth", 200, int)
    tol = cfg.get("tol", 1e-12, float)
    seed = cfg.get("seed", 0, int)
    check_count("seed", seed)
    out = Path(cfg.get("out", "gfun.csv"))
    length = max(depth + 1, required_context(tol, params) + 1)
    rng = np.random.default_rng(seed)
    windows = [np.ones(length, dtype=np.int8)]
    windows += [rng.choice(np.array([-1, 1], dtype=np.int8), size=length) for _ in range(count)]
    rows, diffs = [], []
    for win in windows:
        g_rec = g_function(win, tol, params)
        try:
            detail = g_continued_fraction_detail(win, depth, params)
            diffs.append(abs(g_rec - detail.value))
            rows.append((_spins_to_text(win[:24]), _fmt(g_rec), _fmt(detail.value),
                         _fmt(diffs[-1]), _fmt(detail.min_denominator), "ok"))
        except DivisionNearZeroError:
            rows.append((_spins_to_text(win[:24]), _fmt(g_rec), "nan", "nan", "nan",
                         "division_near_zero"))
    max_diff = max(diffs, default=float("nan"))
    flagged = len(rows) - len(diffs)
    _write_csv(out, cfg.meta(depth=depth, tol=_fmt(tol), window_length=length,
                             max_diff=_fmt(max_diff), flagged=flagged),
               ["window_prefix", "g_recursion", "g_contfrac", "abs_diff", "min_denominator",
                "status"], rows)
    print(f"gfun: wrote {out} ({len(rows)} windows, max |diff|={max_diff:.3e}, flagged={flagged})")
    if not diffs:
        print("gfun: cross-validation FAILED: every window was flagged, so none was compared", file=sys.stderr)
        return 3
    if depth >= 200 and max_diff >= 1e-10:
        print("gfun: cross-validation FAILED at depth >= 200", file=sys.stderr)
        return 3
    return 0


def _timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) and its wall time in seconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _bench_cell(params: ChannelParams, n: int, seed: int, k_list: list[int], algorithms: list[str]):
    """All requested denoisers on one simulated path of the cell; one (algorithm, ber, runtime_s, extra) per run."""
    path = generate_dataset(params, n, seed)
    runs: list[tuple[str, float, float, dict]] = []

    def report(algorithm: str, xhat, runtime_s: float, **extra) -> None:
        runs.append((algorithm, bit_error_rate(xhat, path.x), runtime_s, extra))

    if "bf" in algorithms:
        xhat, elapsed = _timed(lambda: map_denoise(forward_backward(path.y, params)))
        report("bf", xhat, elapsed)
    if "gibbs" in algorithms:
        (xhat, fitted), elapsed = _timed(gibbs_detail, path.y, params.epsilon)
        report("gibbs", xhat, elapsed, p_hat=fitted.p)
    for k in k_list:  # empty unless DUDE runs
        detail, elapsed = _timed(dude_detail, path.y, params.epsilon, k)
        report(f"dude_k{k}", detail.xhat, elapsed, k=k, n_clamped=detail.n_clamped)
    if "bfp" in algorithms:
        (xhat, _), elapsed = _timed(bfp_denoise, path.y, params, mode="exact")
        report("bfp", xhat, elapsed, mode="exact")
    return runs


def cmd_bench(cfg: Settings) -> int:
    """Simulate, denoise and score every (p, eps, seed) cell; emit JSONL and tables."""
    grid = cfg.grid(DEFAULT_BENCH_GRID)
    n = cfg.get("n", 1_000_000, int)
    if n < 4:
        raise ConfigError(f"bench needs n >= 4, got {n}")
    seeds = cfg.get("seed", [0, 1, 2], _int_list)
    for seed in seeds:
        check_count("seed", seed)
    algorithms = cfg.get("algorithms", ["bf", "gibbs", "dude"], _list)
    for algo in algorithms:
        if algo not in ("bf", "gibbs", "dude", "bfp"):
            raise ConfigError(f"unknown algorithm {algo!r}")
    default_k = default_context_length(n)
    ran_with = {"n": n, "seeds": ",".join(map(str, seeds)), "algorithms": ",".join(algorithms)}
    k_list: list[int] = []
    if "dude" in algorithms:
        k_list = cfg.get("k", sorted({*range(1, 9), default_k}), _int_list)
        if min(k_list) < 1:
            raise ConfigError(f"dude context lengths must be >= 1, got k={min(k_list)}")
        max_k = max(k_list)
        if max_k > MAX_CONTEXT_LENGTH:
            raise ConfigError(f"dude context lengths must be <= {MAX_CONTEXT_LENGTH}, got k={max_k}")
        if n <= 2 * max_k + 1:
            raise ConfigError(f"bench with dude contexts up to k={max_k} needs n >= {2 * max_k + 2}")
        ran_with["k_list"] = ",".join(map(str, k_list))
    out_dir = Path(cfg.get("out", "bench-out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    records: list[dict] = []
    by_cell: dict[tuple[float, float], dict[str, list[float]]] = {}
    for p, eps in grid:
        params = validate_params(p, eps)
        cell = by_cell.setdefault((p, eps), {})
        for seed in seeds:
            fields = {"schema": BER_SCHEMA_VERSION, "p": p, "epsilon": eps, "n": n, "seed": seed}
            try:
                runs = _bench_cell(params, n, seed, k_list, algorithms)
            except NoisyMarkovError as exc:
                failures += 1
                records.append({**fields, "error": str(exc)})
                continue
            for algorithm, ber, runtime_s, extra in runs:
                records.append({**fields, "algorithm": algorithm, "ber": ber, "runtime_s": runtime_s,
                                "generator": GENERATOR_NAME, "extra": extra})
                cell.setdefault(algorithm, []).append(ber)

    jsonl_path = out_dir / "ber.jsonl"
    _overwrite(jsonl_path, ((json.dumps(record, sort_keys=True) + "\n").encode() for record in records))

    header = ["p", "eps", "bf", "gibbs", "dude_best", "dude_best_k",
              f"dude_default_k{default_k}", "bfp"]
    columns = ("bf", "gibbs", "dude_best", "dude_best_k", f"dude_k{default_k}", "bfp")  # header[2:]'s keys in means
    rows = []
    md_lines = ["| p | Gibbs | DUDE |", "|---|-------|------|"]
    for (p, eps), bers in by_cell.items():
        means = {name: float(np.mean(values)) for name, values in bers.items()}
        dude_ks = [k for k in k_list if f"dude_k{k}" in means]
        if dude_ks:
            means["dude_best_k"] = min(dude_ks, key=lambda k: means[f"dude_k{k}"])
            means["dude_best"] = means[f"dude_k{means['dude_best_k']}"]
        rows.append((_fmt(p), _fmt(eps), *(_fmt(means[name]) if name in means else "" for name in columns)))
        if "gibbs" in means and "dude_best" in means:
            md_lines.append(f"| {p:g} | {100 * means['gibbs']:.2f}% | {100 * means['dude_best']:.2f}% |")

    _write_csv(out_dir / "ber_table.csv", cfg.meta(**ran_with), header, rows)
    _overwrite(out_dir / "ber_table.md", (("\n".join(md_lines) + "\n").encode(),))
    print(f"bench: wrote {jsonl_path}, {out_dir / 'ber_table.csv'}, {out_dir / 'ber_table.md'}")
    if failures:
        print(f"bench: {failures} cell(s) failed", file=sys.stderr)
        return 3
    return 0


def cmd_simulate(cfg: Settings) -> int:
    """Generate a seeded dataset and export it (packed .bin for y, or full .csv path)."""
    params = validate_params(*cfg.cell())
    n = cfg.get("n", 1000, int)
    seed = cfg.get("seed", 0, int)
    out = Path(cfg.get("out", "path.bin"))
    sim = generate_dataset(params, n, seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix == ".csv":
        save_path_csv(out, sim)
    else:
        save_spins(out, sim.y)
    print(f"simulate: wrote {out} (n={n}, seed={seed}, generator={sim.generator})")
    return 0


_COMMANDS = {
    "probs": cmd_probs,
    "decay": cmd_decay,
    "gfun": cmd_gfun,
    "bench": cmd_bench,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisymarkov",
                                     description="Binary symmetric Markov chain over a binary "
                                                 "symmetric channel: exact probabilities, decay "
                                                 "diagnostics and denoising benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("probs", "enumerate cylinder probabilities and cross-check the oracle"),
        ("decay", "tabulate decay-rate bounds and empirical variation rates"),
        ("gfun", "cross-validate the two forms of the g-function"),
        ("bench", "run the denoising benchmark and emit the BER table"),
        ("simulate", "generate and export a seeded dataset"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--p", type=float, default=None, help="source flip probability")
        cmd.add_argument("--eps", type=float, default=None, help="channel crossover probability")
        cmd.add_argument("--n", type=int, default=None,
                         help="word length (probs), window count (gfun) or sample size")
        cmd.add_argument("--seed", type=str, default=None,
                         help="seed, or comma-separated seed list for bench")
        cmd.add_argument("--k", type=str, default=None, help="context length(s) for dude")
        cmd.add_argument("--depth", type=int, default=None, help="continued-fraction depth")
        cmd.add_argument("--tol", type=float, default=None, help="limit-field tolerance")
        cmd.add_argument("--out", type=str, default=None, help="output file or directory")
        cmd.add_argument("--grid-file", type=str, default=None,
                         help="key=value config file; flags override its entries")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](Settings(args))
    except (ConfigError, OutOfRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoisyMarkovError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
