"""reprotop — a `top`-style terminal dashboard for one embedded server.

Polls the REST observability routes (`/stats`, `/health`, `/jobs`,
`/usage`, `/metrics`) and renders an operator's one-screen view:

* query throughput (qps) and p50/p99 search latency, derived from the
  Prometheus exposition's `collection_search_seconds` histogram;
* background-job activity (running jobs with phase + rows/bytes
  progress, named queue depths);
* the watchdog health rollup with per-component status;
* top collections by accumulated work (`distance_evals` from the
  per-collection usage meter).

Everything is stdlib: ``curses`` for the screen, the repo's own
:class:`~repro.client.rest.RestRouter` as the data source.  The
rendering is a pure function (``render``) over a plain snapshot dict,
so tests can drive it without a terminal; ``--once`` prints a single
snapshot to stdout the same way.

Usage::

    python -m tools.reprotop --demo            # self-contained demo workload
    python -m tools.reprotop --demo --once     # one plain-text snapshot
    python -m tools.reprotop --demo -i 0.5     # 500ms refresh

There is no network transport in this repo (the router is
transport-agnostic), so reprotop always runs in-process: ``--demo``
spins up an embedded server plus a small insert/search workload and
watches it.  Embedding reprotop against your own server is one line:
``run(curses_screen, RestRouter(my_server))``.
"""

from __future__ import annotations

import argparse
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "collect",
    "histogram_quantile",
    "parse_exposition",
    "render",
]

#: histogram family the latency panel reads.
LATENCY_FAMILY = "collection_search_seconds"


# ---------------------------------------------------------------------------
# exposition parsing (pure)
# ---------------------------------------------------------------------------


def parse_exposition(text: str) -> Dict[str, float]:
    """Prometheus text -> ``{sample-name-with-labels: value}``.

    Comment lines (`# HELP` / `# TYPE`) are skipped; the value is the
    text after the last space, per the exposition grammar.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            samples[key] = float(value)
        except ValueError:
            continue
    return samples


def _bucket_edges(samples: Dict[str, float], family: str) -> List[Tuple[float, float]]:
    """Cumulative ``(upper_edge, count)`` pairs for one histogram family,
    summed across label sets, ascending by edge."""
    edges: Dict[float, float] = {}
    prefix = family + "_bucket"
    for key, value in samples.items():
        if not key.startswith(prefix):
            continue
        marker = 'le="'
        at = key.rfind(marker)
        if at < 0:
            continue
        raw = key[at + len(marker):]
        raw = raw[: raw.index('"')]
        edge = float("inf") if raw == "+Inf" else float(raw)
        edges[edge] = edges.get(edge, 0.0) + value
    return sorted(edges.items())


def histogram_quantile(samples: Dict[str, float], family: str, q: float) -> float:
    """Estimate a quantile from exposition bucket lines (0.0 if empty).

    Same linear interpolation Prometheus' ``histogram_quantile`` uses;
    the +Inf bucket reports the highest finite edge.
    """
    buckets = _bucket_edges(samples, family)
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    rank = q * total
    prev_edge, prev_cum = 0.0, 0.0
    for edge, cumulative in buckets:
        if cumulative >= rank:
            if edge == float("inf"):
                return prev_edge
            span = cumulative - prev_cum
            if span <= 0:
                return edge
            return prev_edge + (edge - prev_edge) * (rank - prev_cum) / span
        prev_edge, prev_cum = edge, cumulative
    return prev_edge


def _family_total(samples: Dict[str, float], family: str) -> float:
    return sum(
        v for k, v in samples.items()
        if k == family or k.startswith(family + "{")
    )


# ---------------------------------------------------------------------------
# snapshot collection
# ---------------------------------------------------------------------------


def collect(
    fetch: Callable[[str, str], object],
    previous: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Poll the REST routes once; returns a plain snapshot dict.

    ``fetch(method, path)`` is anything returning an object with
    ``.status`` and ``.body`` (a :class:`RestRouter`'s ``handle``).
    ``previous`` (the prior snapshot) supplies the baseline for rate
    (qps) computation; rates are 0.0 on the first poll.
    """
    now = time.perf_counter()
    health = fetch("GET", "/health").body
    jobs = fetch("GET", "/jobs").body
    usage = fetch("GET", "/usage").body.get("collections", {})
    stats = fetch("GET", "/stats").body
    samples = parse_exposition(fetch("GET", "/metrics").body.get("text", ""))

    searches = _family_total(samples, LATENCY_FAMILY + "_count")
    qps = 0.0
    if previous is not None:
        dt = now - float(previous["at"])
        if dt > 0:
            qps = max(0.0, (searches - float(previous["searches"])) / dt)
    return {
        "at": now,
        "searches": searches,
        "qps": qps,
        "p50": histogram_quantile(samples, LATENCY_FAMILY, 0.50),
        "p99": histogram_quantile(samples, LATENCY_FAMILY, 0.99),
        "health": health,
        "jobs": jobs,
        "usage": usage,
        "uptime": float(stats.get("uptime_seconds", 0.0)),
        "version": str(stats.get("version", "?")),
        "flags": stats.get("flags", {}),
        "collections": len(stats.get("collections", {})),
    }


# ---------------------------------------------------------------------------
# rendering (pure)
# ---------------------------------------------------------------------------


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:6.2f}s "
    return f"{seconds * 1000:6.2f}ms"


def _bar(value: float, limit: float, width: int = 12) -> str:
    filled = 0 if limit <= 0 else min(width, int(round(width * value / limit)))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render(snapshot: Dict[str, object], width: int = 80) -> List[str]:
    """Snapshot dict -> screen lines (pure; no curses, no I/O)."""
    health = snapshot.get("health", {})
    status = str(health.get("status", "unknown"))
    flags = snapshot.get("flags", {})
    flag_text = " ".join(
        name for name in ("observability", "background_flush", "sanitize")
        if flags.get(name)
    ) or "none"
    lines = [
        (
            f"reprotop — repro v{snapshot.get('version', '?')}  "
            f"up {float(snapshot.get('uptime', 0.0)):8.1f}s  "
            f"collections {snapshot.get('collections', 0)}  "
            f"flags: {flag_text}"
        ),
        (
            f"queries  {float(snapshot.get('qps', 0.0)):8.1f} qps   "
            f"p50 {_fmt_seconds(float(snapshot.get('p50', 0.0)))}  "
            f"p99 {_fmt_seconds(float(snapshot.get('p99', 0.0)))}"
        ),
        f"health   {status.upper()}",
    ]
    for name, comp in sorted(dict(health.get("components", {})).items()):
        comp_status = str(comp.get("status", "?"))
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(comp.items()) if k != "status"
        )
        lines.append(f"  {name:<12} {comp_status:<10} {detail}"[:width])

    jobs = snapshot.get("jobs", {})
    running = list(jobs.get("running", []))
    queues = dict(jobs.get("queues", {}))
    queue_text = "  ".join(
        f"{name}:{int(depth)}" for name, depth in sorted(queues.items())
    ) or "idle"
    lines.append(f"jobs     {len(running)} running   queues: {queue_text}")
    for job in running[:6]:
        rows_done = int(job.get("rows_done", 0))
        rows_total = int(job.get("rows_total", 0))
        lines.append(
            (
                f"  #{job.get('id', '?')} {job.get('kind', '?'):<12}"
                f" {job.get('phase', ''):<14}"
                f" {_bar(rows_done, max(rows_total, rows_done))}"
                f" {rows_done}/{rows_total or '?'} rows"
            )[:width]
        )

    usage = dict(snapshot.get("usage", {}))
    by_work = sorted(
        usage.items(),
        key=lambda item: int(item[1].get("counters", {}).get("distance_evals", 0)),
        reverse=True,
    )
    lines.append("top collections by work (distance evals):")
    if not by_work:
        lines.append("  (no usage recorded)")
    for name, record in by_work[:8]:
        evals = int(record.get("counters", {}).get("distance_evals", 0))
        lines.append(
            (
                f"  {name:<20} {evals:>12} evals"
                f"  {int(record.get('queries', 0)):>8} queries"
                f"  {int(record.get('insert_rows', 0)):>10} rows in"
            )[:width]
        )
    return [line[:width] for line in lines]


# ---------------------------------------------------------------------------
# demo workload + curses loop
# ---------------------------------------------------------------------------


def _demo_router():
    """An embedded server plus a background insert/search workload."""
    import os

    import numpy as np

    from repro import obs
    from repro.client.rest import RestRouter

    os.environ.setdefault("REPRO_OBS", "1")
    os.environ.setdefault("REPRO_BG_FLUSH", "1")
    obs.enable()
    router = RestRouter()
    router.handle("POST", "/collections", {
        "name": "demo",
        "vector_fields": [{"name": "embedding", "dim": 32}],
    })
    stop = threading.Event()

    def workload():
        rng = np.random.default_rng(7)
        while not stop.is_set():
            router.handle("POST", "/collections/demo/entities", {
                "data": {"embedding": rng.standard_normal((64, 32)).tolist()},
            })
            for _ in range(5):
                router.handle("POST", "/collections/demo/search", {
                    "field": "embedding",
                    "queries": rng.standard_normal((4, 32)).tolist(),
                    "k": 10,
                })
            router.handle("POST", "/flush", {})
            stop.wait(0.05)

    thread = threading.Thread(target=workload, name="reprotop-demo", daemon=True)
    thread.start()
    return router, stop


def run(screen, router, interval: float = 1.0) -> None:
    """Curses loop: poll, render, repeat until ``q``."""
    import curses

    curses.curs_set(0)
    screen.nodelay(True)
    snapshot: Optional[Dict[str, object]] = None
    while True:
        snapshot = collect(router.handle, previous=snapshot)
        height, width = screen.getmaxyx()
        screen.erase()
        for row, line in enumerate(render(snapshot, width=width - 1)[: height - 1]):
            screen.addstr(row, 0, line)
        screen.addstr(height - 1, 0, "q to quit"[: width - 1])
        screen.refresh()
        deadline = time.perf_counter() + interval
        while time.perf_counter() < deadline:
            if screen.getch() in (ord("q"), ord("Q")):
                return
            time.sleep(0.02)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--demo", action="store_true",
        help="spin up an embedded server with a demo workload and watch it",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print one plain-text snapshot instead of the curses screen",
    )
    parser.add_argument(
        "-i", "--interval", type=float, default=1.0,
        help="refresh interval in seconds (default 1.0)",
    )
    args = parser.parse_args(argv)
    if not args.demo:
        parser.error("this build is in-process only: pass --demo "
                     "(or embed run()/collect() against your own router)")
    router, stop = _demo_router()
    try:
        if args.once:
            snapshot = collect(router.handle)
            time.sleep(max(args.interval, 0.2))  # let rates accumulate
            snapshot = collect(router.handle, previous=snapshot)
            print("\n".join(render(snapshot)))
            return 0
        import curses

        curses.wrapper(run, router, args.interval)
        return 0
    finally:
        stop.set()


if __name__ == "__main__":
    raise SystemExit(main())
