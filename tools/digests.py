"""Print a sha256 prefix for every file the reference obil commands write.

Run from anywhere, with numpy installed:

    python3 tools/digests.py                     # this checkout
    python3 tools/digests.py --root OTHER_CHECKOUT
    python3 tools/digests.py --expect SAVED.txt  # check against saved lines

With `--expect`, the lines are still printed; then every path whose line
differs from the saved listing (a saved output of this tool), or that only
one side has, is named on stderr, and the exit code is 1 if any did.

The commands, each through `obil.cli.main` in this process:

- `obil run` on the README config (seeds 0-2) and on the `drift_long`
  config, both read from the checkout's `perfbench/run.py`;
- `obil train` (`ensemble.bin`), `obil simulate` (`trace.jsonl`) and
  `obil regret` (`regret.tsv`) on the README config, where qc = 1;
- the per-query path: `adapter.run_log_lr_stream` over one `fused_log_lr`
  call a row, made as the adapter reaches it, on that `ensemble.bin` over a
  fixed 500-row stream of the README scenario, written by
  `experiment.write_trace` to `query/trace.jsonl`;
- three batches: the raw float64 bytes of `fused_log_lr_batch` on that
  `ensemble.bin` over a 250-row and a 1,025-row stream of the README
  scenario, written to `batch/fused.bin` and `batch/fused_tiles.bin`, and
  over the same 1,025 rows with every member's `dropout_rate` set to 0,
  written to `batch/fused_plain.bin`.  At hidden widths (64, 32) the
  250-row batch is one row tile, whose MC passes run in 15 blocks of 2 on
  the calling thread whatever the CPU count.  The 1,025-row batch is three
  row tiles of 512, 448 and 65 rows, so it runs on min(usable CPUs, 3)
  threads, and its masks follow the tile edges; the drift config's
  10,000-row fusion runs 20 row tiles the same way.  The dropout-free batch
  runs the same tiles with no MC passes and draws nothing.  All must print
  the same lines under `taskset -c 0` as on every CPU.

`obil simulate` and `obil regret` run `obil run`'s stages for seed 0: they
fit the ensemble, then draw, fuse and charge the seed's one stream.  So
`simulate/trace.jsonl` equals `readme/seed_0/trace.jsonl` and
`regret/regret.tsv` equals `readme/seed_0/regret.tsv`: the two pairs of
lines print the same digest by design.  The streams of the per-query path
and the batch come from `StreamScenario.draw`, the drawer of every obil
stream.

Each line is `<first 8 hex digits of sha256> <path under the output
directory>`, sorted by path.  Two checkouts that print the same lines wrote
the same bytes, up to a collision of 8 hex digits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
QUERIES = 500
BATCH_ROWS = 250
TILED_BATCH_ROWS = 1025


def load_configs(root: Path):
    """README_CONFIG and DRIFT_CONFIG as `perfbench/run.py` defines them."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.README_CONFIG, module.DRIFT_CONFIG


def write_outputs(root: Path, out: Path):
    sys.path.insert(0, str(root / "src"))
    import obil.cli

    # an installed obil (or an import hook) could win over root/src, and
    # both checkouts would then hash the same code
    loaded = Path(obil.cli.__file__).resolve()
    if not loaded.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported obil from {loaded}, not from {root / 'src'}")

    readme, drift = load_configs(root)
    jobs = [("readme", "run", readme), ("drift", "run", drift),
            ("train", "train", readme), ("simulate", "simulate", readme),
            ("regret", "regret", readme)]
    for name, command, config in jobs:
        config_path = out / f"{name}.json"
        config_path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = obil.cli.main([command, "--config", str(config_path),
                                  "--out", str(out / name)])
        if code != 0:
            raise SystemExit(f"obil {command} on the {name} config exited with {code}")
        config_path.unlink()

    from obil.adapter import run_log_lr_stream
    from obil.ensemble import load_ensemble
    from obil.experiment import parse_config, write_trace
    from obil.simulate import StreamScenario
    parsed = parse_config(readme)
    rng = np.random.default_rng(0)
    feats, _, _ = StreamScenario(parsed["problem"], parsed["trajectory"], QUERIES).draw(rng)
    ensemble = load_ensemble(out / "train" / "ensemble.bin")
    trace = run_log_lr_stream((ensemble.fused_log_lr(x, rng) for x in feats), parsed["adapter"])
    (out / "query").mkdir()
    write_trace(out / "query" / "trace.jsonl", trace)

    # the same members without dropout: their fusion runs no MC pass
    plain = load_ensemble(out / "train" / "ensemble.bin")
    for member in plain.members:
        member.dropout_rate = 0.0
    (out / "batch").mkdir()
    for name, ens, rows in (("fused.bin", ensemble, BATCH_ROWS),
                            ("fused_tiles.bin", ensemble, TILED_BATCH_ROWS),
                            ("fused_plain.bin", plain, TILED_BATCH_ROWS)):
        feats, _, _ = StreamScenario(parsed["problem"], parsed["trajectory"],
                                     rows).draw(np.random.default_rng(1))
        fused = ens.fused_log_lr_batch(feats, np.random.default_rng(rows))
        (out / "batch" / name).write_bytes(fused.tobytes())


def digest_lines(out: Path):
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:8]
        yield f"{digest} {path.relative_to(out).as_posix()}"


def differing_paths(lines, expected):
    """Paths whose digest differs between two listings, or that one lacks."""
    def by_path(listing):
        return {path: digest for digest, path in
                (line.split(" ", 1) for line in listing if line.strip())}
    got, want = by_path(lines), by_path(expected)
    return sorted(p for p in got.keys() | want.keys() if got.get(p) != want.get(p))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose src/ and perfbench/run.py are used")
    parser.add_argument("--expect", type=Path,
                        help="saved listing to compare with; exit 1 if any line differs")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    needed = [root / "src" / "obil", root / "perfbench" / "run.py"]
    for path in needed + ([args.expect] if args.expect else []):
        if not path.exists():
            print(f"error: {path}: no such file or directory", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_outputs(root, out)
        lines = list(digest_lines(out))
    for line in lines:
        print(line)
    if args.expect is None:
        return 0
    differ = differing_paths(lines, args.expect.read_text().splitlines())
    for path in differ:
        print(f"differs: {path}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
