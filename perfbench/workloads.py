"""The three workloads: set-up, timed rounds, and judging the answers.

Each workload runs *rounds*: a fixed make-up of checks.  A run attempts
whole rounds until ``--seconds`` of timed wall time have passed and at
least :data:`MIN_CHECKS` checks were timed, so every run attempts the
same operations in the same proportions.  The calibration kernel
(``calibrate.py``) is sampled, untimed, next to every timed block.

* ``cold_stream`` — a fresh in-process engine and a seeded stream in
  which no pair repeats.
* ``warm_zipf`` — an in-process engine warmed on a small corpus, then a
  Zipf-skewed replay of it.
* ``service_http`` — ``repro serve`` in its own process, driven over
  HTTP by two closed-loop keep-alive clients.
"""

import functools
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from calibrate import speed_factor
from inputs import Generator, redundant_correlated
from oracle import Oracle

__all__ = ["OUT", "WORKLOADS", "end_to_end", "raw_figures"]

#: Every run times at least this many checks, so the 99th percentile
#: has at least ten samples beyond it.
MIN_CHECKS = 1000

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


class Block:
    """One timed block of checks as measured.

    :ivar cpu_s: CPU time of the deciding process over the block.
    :ivar factor: the calibration's speed factor next to the block.
    """

    __slots__ = ("checks", "wall_s", "cpu_s", "factor", "latencies")

    def __init__(self, checks, wall_s, cpu_s, factor, latencies):
        self.checks = checks
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.factor = factor
        self.latencies = latencies

    def scaled_wall_s(self):
        """Wall time at the reference speed: the deciding process's CPU
        time is scaled, the rest (waits on the batch window, sockets and
        the other process) is not."""
        return self.wall_s + min(self.cpu_s, self.wall_s) * (self.factor - 1)

    def stretch(self):
        return self.scaled_wall_s() / self.wall_s


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))
    return ordered[index]


def end_to_end(setup_s, blocks, peak_rss_mb):
    """The six end-to-end metrics, ``{name: (value, unit)}``.

    Times are at the reference speed, block by block (see
    :meth:`Block.scaled_wall_s`); a latency is stretched as its block.
    """
    checks = sum(b.checks for b in blocks)
    wall = sum(b.scaled_wall_s() for b in blocks)
    cpu = sum(b.cpu_s * b.factor for b in blocks)
    latencies = [lat * b.stretch() for b in blocks for lat in b.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (checks / wall, "1/s"),
        "latency_p50_ms": (_percentile(latencies, 0.50) * 1e3, "ms"),
        "latency_p99_ms": (_percentile(latencies, 0.99) * 1e3, "ms"),
        "cpu_ms_per_check": (cpu / checks * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def raw_figures(blocks):
    """The same figures as measured (unscaled), for the run record."""
    checks = sum(b.checks for b in blocks)
    wall = sum(b.wall_s for b in blocks)
    latencies = [lat for b in blocks for lat in b.latencies]
    return {
        "checks": checks,
        "timed_blocks": len(blocks),
        "wall_s": round(wall, 4),
        "checks_per_s": round(checks / wall, 3),
        "latency_p50_ms": round(_percentile(latencies, 0.5) * 1e3, 4),
        "latency_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 4),
        "speed_factor": round(
            sum(b.factor * b.wall_s for b in blocks) / wall, 4),
    }


@functools.lru_cache(maxsize=None)
def _parsed(deps):
    from repro.constraints import parse_constraints

    return parse_constraints(deps)


def _constraints(check):
    return _parsed(check.deps) if check.deps else None


def call_engine(engine, check):
    """One public engine call for *check*; exceptions are answers too."""
    try:
        if check.op == "contains":
            return engine.contains(check.sup, check.sub, check.schema,
                                   constraints=_constraints(check))
        if check.op == "equiv":
            return engine.weakly_equivalent(check.sup, check.sub,
                                            check.schema)
        return engine.classify_many(check.sub, list(check.views),
                                    check.schema)
    except Exception as exc:  # judged (and counted) by the oracle pass
        return exc


def same_answer(left, right):
    if isinstance(left, Exception) or isinstance(right, Exception):
        return type(left) is type(right) and str(left) == str(right)
    return left == right


def known(check, answer):
    """Whether a wrong *answer* is the one a known fault of the README
    explains: fault 3 answers False on its fixed pairs."""
    return check.known_fault == 3 and answer is False


def plain(answer):
    """*answer* with a captured exception as text, for the oracle."""
    if isinstance(answer, Exception):
        return "%s: %s" % (type(answer).__name__, answer)
    return answer


class Workload:
    """The round loop shared by the workloads.

    Subclasses provide ``setup``, ``round_checks(index)``,
    ``time_round(checks)`` (a list of :class:`Block`),
    ``peak_rss_mb``, ``stats_snapshot``, ``judge()`` and ``close``.

    The workload's :class:`Oracle` is made with its inputs: it screens
    the seeded streams (see :meth:`Oracle.exposed`) and judges every
    answer after the timed phase, reusing the evaluations it made.
    """

    #: Untraced and traced rounds of a ``--trace 1`` run (each).
    trace_rounds = 3

    def __init__(self, seed):
        self.seed = seed
        self.answers = []
        self.started = 0  # rounds handed out so far

    def generator(self):
        """The seeded input generator, screened by the workload's
        oracle (made here too)."""
        self.oracle = Oracle(self.seed)
        return Generator(self.seed,
                         admit=lambda check: not self.oracle.exposed(check))

    def run(self, seconds, max_rounds=None):
        """Time whole rounds: *max_rounds* of them, or else until
        *seconds* of timed wall time and :data:`MIN_CHECKS` checks."""
        blocks = []
        elapsed = 0.0
        first = self.started
        while True:
            if max_rounds is not None:
                if self.started - first >= max_rounds:
                    break
            elif elapsed >= seconds and sum(
                    b.checks for b in blocks) >= MIN_CHECKS:
                break
            checks = self.round_checks(self.started)
            self.started += 1
            timed = self.time_round(checks)
            blocks += timed
            elapsed += sum(b.wall_s for b in timed)
        return blocks


class InProcess(Workload):
    """A workload deciding through a ``ContainmentEngine`` in this
    process, on one thread.

    The engine is built with ``retain_trace=False``, as a long-lived
    caller would: by default it keeps every check's span tree, so its
    memory would grow with the number of checks a run completes and a
    faster engine would read as a larger one.
    """

    #: A block of checks closes, and the kernel is sampled, once it has
    #: run this long.
    BLOCK_S = 0.2

    def __init__(self, seed):
        super().__init__(seed)
        self.engine = None

    def time_round(self, checks):
        engine = self.engine
        blocks = []
        answers = []
        before = speed_factor()
        position = 0
        while position < len(checks):
            latencies = []
            cpu0 = time.process_time()
            start = time.perf_counter()
            while position < len(checks) and (
                    time.perf_counter() - start < self.BLOCK_S):
                t = time.perf_counter()
                answers.append(call_engine(engine, checks[position]))
                latencies.append(time.perf_counter() - t)
                position += 1
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            after = speed_factor()
            blocks.append(Block(len(latencies), wall, cpu,
                                (before + after) / 2, latencies))
            before = after
        self.record(checks, answers)
        return blocks

    def record(self, checks, answers):
        self.answers.extend(zip(checks, answers))

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stats_snapshot(self):
        store = self.engine.store()
        return {
            "engine": dict(self.engine.stats().as_dict()),
            "store_counters": store.counters(),
            "store_sizes": store.sizes(),
        }

    def judge(self):
        """``(attempted, failed, failures)``; every answer is judged.
        A wrong answer a known fault explains is failed, not a failure."""
        failed = 0
        failures = []
        for check, answer in self.answers:
            reason = self.oracle.judge(check, plain(answer))
            if reason:
                failed += 1
                if not known(check, answer):
                    failures.append((check, reason))
        return len(self.answers), failed, failures

    def close(self):
        self.engine = None


class ColdStream(InProcess):
    """First-sight checks: every round draws new pairs."""

    trace_rounds = 3

    #: Round make-up: checks per family per round.
    GENERATED = 100
    UNIONS = 8
    CHASES = 8
    SCENARIOS = 8
    #: (n, count) of K_n-vs-K_{n+1} pigeonhole pairs per round.  The
    #: three K7/K8 pairs (2.2 % of a round, the heaviest checks) put the
    #: 99th percentile near their median rather than in their low tail.
    PIGEONHOLES = ((4, 2), (5, 2), (6, 2), (7, 3))
    #: Every round also carries the fixed pairs of known fault 3
    #: (``inputs.REDUNDANT_CORRELATED``), renamed by the round index.

    def setup(self):
        from repro.engine import ContainmentEngine

        self.gen = self.generator()
        self.seen = set()
        self.pads = 0
        self.drawn = 0
        self.rounds_drawn = 0
        self.engine = ContainmentEngine(retain_trace=False)
        self.first = self._draw_round()

    def _fresh(self, make):
        while True:
            check = make()
            if check.key() not in self.seen:
                self.seen.add(check.key())
                return check

    def _next_generated(self):
        check = self.gen.generated_class(self.drawn)
        self.drawn += 1
        return check

    def _draw_round(self):
        gen = self.gen
        checks = [self._fresh(self._next_generated)
                  for _ in range(self.GENERATED)]
        checks += [self._fresh(gen.union) for _ in range(self.UNIONS)]
        checks += [self._fresh(gen.chase) for _ in range(self.CHASES)]
        checks += [self._fresh(gen.scenario) for _ in range(self.SCENARIOS)]
        for n, count in self.PIGEONHOLES:
            for _ in range(count):
                self.pads += 1
                checks.append(gen.pigeonhole(n, 100 + self.pads))
        checks += redundant_correlated(self.rounds_drawn)
        self.rounds_drawn += 1
        gen.rng.shuffle(checks)
        return checks

    def round_checks(self, index):
        return self.first if index == 0 else self._draw_round()


class WarmZipf(InProcess):
    """Zipf-skewed replay of a corpus the set-up already decided."""

    trace_rounds = 10

    #: Corpus checks (cycling through ``Generator.CLASSES``), catalog
    #: views, draws per round and the Zipf exponent (the one of the
    #: repository's own Zipf replay, EXPERIMENTS.md E14).
    CORPUS = 160
    VIEWS = 4
    DRAWS = 1000
    ZIPF_S = 1.2

    def setup(self):
        from repro.engine import ContainmentEngine

        gen = self.generator()
        views = gen.catalog(self.VIEWS)
        # The fixed pairs of known fault 3 come last: one draw each per
        # round, whatever the seed.
        corpus = gen.stratified(self.CORPUS, views) + redundant_correlated(0)
        # Zipf quotas by rank.  The corpus cycles through the classes, so
        # rank r holds class r mod 16 for every seed; round k gives rank
        # r to the ((r // 16 + k) mod 10)-th check of that class, so the
        # popular checks drift from round to round and a run's head
        # spans every check of a class, not one seed's pick.
        weights = [1.0 / (rank + 1) ** self.ZIPF_S
                   for rank in range(len(corpus))]
        scale = self.DRAWS / sum(weights)
        quotas = [max(1, int(round(weight * scale))) for weight in weights]
        classes = len(Generator.CLASSES)
        per_class = self.CORPUS // classes
        self.streams = []
        for shift in range(per_class):
            stream = []
            for rank, quota in enumerate(quotas):
                index = rank
                if rank < self.CORPUS:
                    item = (rank // classes + shift) % per_class
                    index = item * classes + rank % classes
                stream += [corpus[index]] * quota
            gen.rng.shuffle(stream)
            self.streams.append(stream)
        self.corpus = corpus
        self.replayed = 0
        self.replays = {}  # replays per check key
        self.changed = []
        self.engine = ContainmentEngine(retain_trace=False)
        self.first_answers = {check.key(): call_engine(self.engine, check)
                              for check in corpus}

    def round_checks(self, index):
        return self.streams[index % len(self.streams)]

    def record(self, checks, answers):
        # A replay must repeat the warm-up answer, which the oracle
        # judges once.
        for check, answer in zip(checks, answers):
            key = check.key()
            self.replays[key] = self.replays.get(key, 0) + 1
            if not same_answer(answer, self.first_answers[key]):
                self.changed.append((check, answer))
        self.replayed += len(checks)

    def judge(self):
        failures = [
            (check, "replay answer %r differs from the warm-up answer"
             % (plain(answer),)) for check, answer in self.changed]
        wrong = set()
        for check in self.corpus:
            answer = self.first_answers[check.key()]
            reason = self.oracle.judge(check, plain(answer))
            if reason:
                if not known(check, answer):
                    failures.append((check, reason))
                wrong.add(check.key())
        failed = len(self.changed) + sum(
            self.replays.get(key, 0) for key in wrong)
        return self.replayed, failed, failures


# -- the HTTP service -------------------------------------------------------

def _proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


class Server:
    """``repro serve`` in a child process, started by ``serve.py``."""

    def __init__(self, root, store_path, trace_out=None):
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        if trace_out:
            command += ["--trace-out", trace_out]
        command += ["--", "serve", "--port", "0", "--jobs", "1",
                    "--preload", "--store-path", store_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.lines = []
        self.port = None
        try:
            while self.port is None:
                line = self.proc.stderr.readline()
                if not line:
                    raise RuntimeError("server exited during start-up: %s"
                                       % "".join(self.lines))
                self.lines.append(line)
                if line.startswith("serving on http://"):
                    self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.proc.kill()
            self.proc.wait(30)
            raise
        # Keep reading stderr so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.lines.extend,
                                       args=(self.proc.stderr,), daemon=True)
        self._drain.start()

    @property
    def pid(self):
        return self.proc.pid

    def enable_trace(self):
        self.proc.send_signal(signal.SIGUSR1)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)
        self._drain.join(30)


def call_service(client, check):
    """One HTTP request for *check*; returns the answer, or the error
    status as ``("http", status)``."""
    from repro.service.client import ServiceError

    schema = {name: list(attrs) for name, attrs in check.schema.items()}
    try:
        if check.op == "contains":
            knobs = {}
            if check.timeout_s is not None:
                knobs["timeout_s"] = check.timeout_s
            return client.contain(check.sup, check.sub, schema, **knobs)
        if check.op == "equiv":
            return client.equiv(check.sup, check.sub, schema, weak=True)
        names = ["v%d" % i for i in range(len(check.views))]
        labels = client.classify(check.sub, dict(zip(names, check.views)),
                                 schema)
        return [labels[name] for name in sorted(names)]
    except ServiceError as exc:
        return ("http", exc.status)


class ServiceHttp(Workload):
    """Two closed-loop keep-alive clients against ``repro serve``."""

    trace_rounds = 4

    #: Per client per round: stored checks (reads) and new ones (writes).
    #: With the budgeted requests a round is 102 requests, so those
    #: (2 %, the slowest) put the 99th percentile near their median.
    READS = 45
    WRITES = 5
    CLIENTS = 2
    #: Budgeted pigeonhole requests (K_n vs K_{n+1}) per round, all
    #: from client 0 so they never overlap.
    BUDGETED = 2
    BUDGET_N = 7
    BUDGET_TIMEOUT_S = 0.05
    #: A budgeted answer later than timeout + batch window + slack
    #: counts as failed.
    BATCH_WINDOW_S = 0.002
    BUDGET_SLACK_S = 0.10

    #: Stored checks (cycling through ``Generator.CLASSES``, less the
    #: chase: the server runs without dependencies) and catalog views.
    CORPUS = 150
    VIEWS = 4

    def __init__(self, seed, root):
        super().__init__(seed)
        self.root = root
        self.server = None
        self.clients = []
        self.store_dir = None

    def setup(self, trace_out=None):
        from repro.engine import ContainmentEngine

        gen = self.generator()
        self.gen = gen
        views = gen.catalog(self.VIEWS)
        self.corpus = gen.stratified(self.CORPUS, views, skip=("chase",))
        self.seen = {c.key() for c in self.corpus}
        self.reads = 0
        self.writes = 0
        os.makedirs(OUT, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT)
        self.store_path = os.path.join(self.store_dir, "artifacts.sqlite")
        engine = ContainmentEngine(store_path=self.store_path)
        for check in self.corpus:
            call_engine(engine, check)
        engine.store().close()  # flushes the write-back buffer
        self.server = Server(self.root, self.store_path, trace_out)
        from repro.service.client import ServiceClient

        self.clients = [
            ServiceClient("127.0.0.1", self.server.port, timeout_s=120)
            for _ in range(self.CLIENTS)]

    def db_bytes(self):
        return sum(os.path.getsize(os.path.join(self.store_dir, name))
                   for name in os.listdir(self.store_dir))

    def close(self):
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def _new_check(self):
        while True:
            check = self.gen.generated_class(self.writes)
            self.writes += 1
            if check.key() not in self.seen:
                self.seen.add(check.key())
                return check

    def round_checks(self, index):
        """Per client: stored checks (the corpus in turn) and new ones,
        shuffled; client 0 also carries the round's budgeted pigeonhole
        requests, whose inputs depend on the round index only."""
        lists = []
        for _ in range(self.CLIENTS):
            checks = []
            for _ in range(self.READS):
                checks.append(self.corpus[self.reads % len(self.corpus)])
                self.reads += 1
            checks += [self._new_check() for _ in range(self.WRITES)]
            self.gen.rng.shuffle(checks)
            lists.append(checks)
        budget = Generator("budget")
        for slot in range(self.BUDGETED):
            check = budget.pigeonhole(self.BUDGET_N,
                                      5000 + self.BUDGETED * index + slot)
            check.family = "budgeted_pigeonhole"
            check.timeout_s = self.BUDGET_TIMEOUT_S
            lists[0].insert((slot + 1) * len(lists[0]) // (self.BUDGETED + 1),
                            check)
        return lists

    def time_round(self, lists):
        before = speed_factor()
        results = [None] * len(lists)

        def drive(slot):
            client = self.clients[slot]
            out = []
            for check in lists[slot]:
                t = time.perf_counter()
                answer = call_service(client, check)
                out.append((check, answer, time.perf_counter() - t))
            results[slot] = out

        threads = [threading.Thread(target=drive, args=(slot,))
                   for slot in range(len(lists))]
        cpu0 = _proc_cpu_s(self.server.pid)
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = _proc_cpu_s(self.server.pid) - cpu0
        after = speed_factor()
        latencies = []
        for out in results:
            for check, answer, latency in out:
                latencies.append(latency)
                self.answers.append((check, answer, latency))
        return [Block(len(latencies), wall, cpu, (before + after) / 2,
                      latencies)]

    def peak_rss_mb(self):
        return _proc_peak_rss_mb(self.server.pid)

    def stats_snapshot(self):
        return self.clients[0].stats()

    def late(self, check, latency):
        return check.timeout_s is not None and latency > (
            check.timeout_s + self.BATCH_WINDOW_S + self.BUDGET_SLACK_S)

    def judge(self):
        """Every answer must match a fresh in-process engine and the
        oracle; a budgeted answer that comes late is failed as well
        (known fault 1), but only a wrong answer is a failure."""
        fresh = self._fresh_answers()
        failed = 0
        failures = []
        for check, answer, latency in self.answers:
            reason = self._judge_one(check, answer, fresh, self.oracle)
            if reason or self.late(check, latency):
                failed += 1
            if reason:
                failures.append((check, reason))
        return len(self.answers), failed, failures

    def _fresh_answers(self):
        """A fresh engine's answers to every distinct request but the
        pigeonholes (judged by construction); 422 where it finds the pair
        incomparable."""
        from repro.engine import ContainmentEngine
        from repro.errors import IncomparableQueriesError

        engine = ContainmentEngine()
        out = {}
        for check, _answer, _latency in self.answers:
            key = check.key()
            if key in out or check.family.startswith(("pigeonhole",
                                                      "budgeted")):
                continue
            answer = call_engine(engine, check)
            if isinstance(answer, IncomparableQueriesError):
                answer = ("http", 422)
            out[key] = answer
        return out

    @staticmethod
    def _judge_one(check, answer, fresh, oracle):
        if check.timeout_s is not None and answer == "undecided":
            return None  # a budgeted request answered in time
        key = check.key()
        if key in fresh and not same_answer(answer, fresh[key]):
            return "service answered %r, a fresh engine %r" % (
                answer, plain(fresh[key]))
        if isinstance(answer, tuple):
            return "HTTP %d" % answer[1]
        return oracle.judge(check, answer)


WORKLOADS = {
    "cold_stream": ColdStream,
    "warm_zipf": WarmZipf,
    "service_http": ServiceHttp,
}
