"""Low-overhead sampling profiler with collapsed-stack and flamegraph output.

:class:`SamplingProfiler` samples the Python call stack at a fixed interval
and aggregates the samples into collapsed stacks (the Brendan Gregg
``root;child;leaf count`` format) from which a self-contained flamegraph
HTML file can be rendered (:func:`flamegraph_html`) — no external tooling
or JavaScript dependencies.

Two sampling engines, chosen by what the profiler can observe:

``itimer`` (whenever it can run)
    ``signal.setitimer(ITIMER_PROF)`` + a ``SIGPROF`` handler.  The timer
    counts *CPU* time, so a sleeping process takes no samples at all, and
    the handler receives the interrupted frame directly — overhead is a few
    microseconds per sample (<1% at the default 5 ms interval, comfortably
    under the 5% budget the telemetry pipeline gates on).  Only usable on
    the main thread of the main interpreter (the only place CPython
    delivers signals).

``thread``
    A daemon thread that wakes every ``interval_s`` of wall-clock time and
    walks ``sys._current_frames()`` for the target thread.  Works anywhere
    (worker threads, signal-hostile embeddings) at slightly higher overhead
    and wall-clock (not CPU) weighting.

The thread engine runs when a ``target_thread_id`` is given (the itimer
only ever sees the main thread) or when ``setitimer`` cannot be used on
the calling thread; otherwise the itimer engine runs.

The profiler is re-entrant-safe but not concurrent: one active instance per
process at a time (a second ``start()`` while another instance is sampling
raises).
"""

from __future__ import annotations

import html
import signal
import sys
import threading
import time
from pathlib import Path
from types import FrameType

#: Default sampling interval: 5 ms (200 Hz).
DEFAULT_INTERVAL_S = 0.005

_active_profiler: "SamplingProfiler | None" = None


def _frame_label(frame: FrameType) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{code.co_name}"


def _walk_stack(frame: FrameType | None, limit: int) -> tuple[str, ...]:
    """The stack rooted-first (outermost caller first, leaf last)."""
    labels: list[str] = []
    while frame is not None and len(labels) < limit:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


class SamplingProfiler:
    """Sample the call stack every ``interval_s``; aggregate by stack.

    Use as a context manager::

        with SamplingProfiler(interval_s=0.005) as prof:
            expensive_pipeline()
        Path("flame.html").write_text(flamegraph_html(prof.samples))

    ``samples`` maps root-first stack tuples to sample counts.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        max_depth: int = 128,
        target_thread_id: int | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.interval_s = interval_s
        self.max_depth = max_depth
        #: Sample this thread instead of the one calling ``start()`` —
        #: selects the thread engine.  Lets a daemon profile e.g. its
        #: dispatcher thread from the asyncio thread.
        self.target_thread_id = target_thread_id
        #: The engine actually used ("itimer" or "thread"); set by start().
        self.engine: str | None = None
        self.samples: dict[tuple[str, ...], int] = {}
        self.sample_count = 0
        self._running = False
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._previous_handler = None

    # -- engine selection ----------------------------------------------------

    def _engine(self) -> str:
        can_itimer = (
            self.target_thread_id is None
            and hasattr(signal, "setitimer")
            and hasattr(signal, "SIGPROF")
            and threading.current_thread() is threading.main_thread()
        )
        return "itimer" if can_itimer else "thread"

    # -- sampling ------------------------------------------------------------

    def _record(self, frame: FrameType | None) -> None:
        stack = _walk_stack(frame, self.max_depth)
        if not stack:
            return
        self.samples[stack] = self.samples.get(stack, 0) + 1
        self.sample_count += 1

    def _on_sigprof(self, signum, frame) -> None:
        self._record(frame)

    def _thread_loop(self, target_thread_id: int) -> None:
        while not self._stop_event.wait(self.interval_s):
            frame = sys._current_frames().get(target_thread_id)
            # Skip the profiler's own frames when the target is idle in us.
            self._record(frame)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        global _active_profiler
        if self._running:
            raise RuntimeError("profiler already running")
        if _active_profiler is not None:
            raise RuntimeError("another SamplingProfiler is already active")
        self.engine = self._engine()
        if self.engine == "itimer":
            self._previous_handler = signal.signal(
                signal.SIGPROF, self._on_sigprof
            )
            signal.setitimer(
                signal.ITIMER_PROF, self.interval_s, self.interval_s
            )
        else:
            self._stop_event.clear()
            target = (
                self.target_thread_id
                if self.target_thread_id is not None
                else threading.get_ident()
            )
            self._thread = threading.Thread(
                target=self._thread_loop,
                args=(target,),
                name="repro-profiler",
                daemon=True,
            )
            self._thread.start()
        self._running = True
        _active_profiler = self
        return self

    def stop(self) -> "SamplingProfiler":
        global _active_profiler
        if not self._running:
            return self
        if self.engine == "itimer":
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            if self._previous_handler is not None:
                signal.signal(signal.SIGPROF, self._previous_handler)
            self._previous_handler = None
        else:
            self._stop_event.set()
            if self._thread is not None:
                self._thread.join(timeout=2.0)
            self._thread = None
        self._running = False
        if _active_profiler is self:
            _active_profiler = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def profile(fn, *args, interval_s: float = DEFAULT_INTERVAL_S):
    """Run ``fn(*args)`` under a profiler; returns ``(result, profiler)``."""
    prof = SamplingProfiler(interval_s=interval_s)
    with prof:
        result = fn(*args)
    return result, prof


def profile_overhead(
    fn, repeat: int = 3, interval_s: float = DEFAULT_INTERVAL_S
) -> tuple[float, "SamplingProfiler"]:
    """Measure the profiler's relative overhead on ``fn``.

    Runs ``fn`` ``repeat`` times bare and ``repeat`` times under a profiler
    (interleaving is not attempted; callers pick a deterministic CPU-bound
    ``fn``).  Returns ``(overhead_fraction, profiler)`` where 0.05 == 5%.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    fn()  # warm-up: imports, caches
    bare = time.perf_counter()
    for _ in range(repeat):
        fn()
    bare = time.perf_counter() - bare
    prof = SamplingProfiler(interval_s=interval_s)
    profiled = time.perf_counter()
    with prof:
        for _ in range(repeat):
            fn()
    profiled = time.perf_counter() - profiled
    overhead = (profiled - bare) / bare if bare > 0 else 0.0
    return overhead, prof


# -- collapsed stacks --------------------------------------------------------


def collapsed_stacks(samples: dict[tuple[str, ...], int]) -> str:
    """The samples in collapsed-stack format: ``root;child;leaf count`` per
    line, sorted for deterministic output.  Feedable to any flamegraph
    tooling (e.g. speedscope or flamegraph.pl)."""
    lines = [
        ";".join(stack) + f" {count}"
        for stack, count in sorted(samples.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Inverse of :func:`collapsed_stacks` (blank lines skipped)."""
    samples: dict[tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_part, _, count_part = line.rpartition(" ")
        if not stack_part:
            continue
        try:
            count = int(count_part)
        except ValueError:
            continue
        stack = tuple(stack_part.split(";"))
        samples[stack] = samples.get(stack, 0) + count
    return samples


# -- flamegraph rendering ----------------------------------------------------


class _Node:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.children: dict[str, _Node] = {}


def _build_trie(samples: dict[tuple[str, ...], int]) -> _Node:
    root = _Node("all")
    for stack, count in samples.items():
        root.value += count
        node = root
        for label in stack:
            child = node.children.get(label)
            if child is None:
                child = node.children[label] = _Node(label)
            node = child
            node.value += count
    return root


def _frame_color(name: str) -> str:
    """Deterministic warm color per frame name (classic flamegraph look)."""
    h = 0
    for ch in name:
        h = (h * 31 + ord(ch)) & 0xFFFFFF
    r = 205 + (h & 0x1F)          # 205-236
    g = 80 + ((h >> 5) & 0x7F)    # 80-207
    b = (h >> 12) & 0x3F          # 0-63
    return f"rgb({r},{g},{b})"


def flamegraph_html(
    samples: dict[tuple[str, ...], int],
    title: str = "repro flamegraph",
    width: int = 1200,
    row_height: int = 18,
) -> str:
    """A self-contained flamegraph as an HTML document (inline SVG).

    Frame widths are proportional to inclusive sample counts; hovering a
    frame shows its full name, sample count and percentage via a ``<title>``
    tooltip.  Deterministic for a given sample set.
    """
    root = _build_trie(samples)
    total = root.value
    rects: list[str] = []
    max_depth = 0

    def emit(node: _Node, x: float, depth: int) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        w = node.value / total * width if total else 0.0
        if w >= 0.5:  # skip sub-half-pixel frames
            pct = node.value / total * 100 if total else 0.0
            label = html.escape(node.name, quote=True)
            tip = html.escape(
                f"{node.name} — {node.value} samples ({pct:.1f}%)", quote=True
            )
            y = depth * row_height
            text = ""
            if w > 40:
                shown = node.name.rsplit(".", 1)[-1]
                max_chars = max(1, int(w / 7))
                if len(shown) > max_chars:
                    shown = shown[: max_chars - 1] + "…"
                text = (
                    f'<text x="{x + 3:.1f}" y="{y + row_height - 5}" '
                    f'font-size="11" font-family="monospace">'
                    f"{html.escape(shown)}</text>"
                )
            rects.append(
                f'<g class="frame"><rect x="{x:.1f}" y="{y}" '
                f'width="{max(w, 1.0):.1f}" height="{row_height - 1}" '
                f'fill="{_frame_color(node.name)}" rx="2">'
                f"<title>{tip}</title></rect>{text}"
                f"<!-- {label} --></g>"
            )
        cx = x
        for name in sorted(node.children):
            child = node.children[name]
            emit(child, cx, depth + 1)
            cx += child.value / total * width if total else 0.0

    emit(root, 0.0, 0)
    height = (max_depth + 1) * row_height + 10
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        + "".join(rects)
        + "</svg>"
    )
    note = (
        f"{total} samples, {len(samples)} distinct stacks"
        if total
        else "no samples collected (workload too short for the interval?)"
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        "<style>body{font-family:monospace;margin:16px}"
        ".frame rect:hover{stroke:#000;stroke-width:1}</style>"
        f"</head><body><h2>{html.escape(title)}</h2>"
        f"<p>{note}</p>{svg}</body></html>\n"
    )


def write_flamegraph(
    path: str | Path,
    samples: dict[tuple[str, ...], int],
    title: str = "repro flamegraph",
) -> Path:
    """Write :func:`flamegraph_html` output to ``path``; returns it."""
    path = Path(path)
    path.write_text(flamegraph_html(samples, title=title))
    return path
