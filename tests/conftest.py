import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dle.model import TableModel, train_ngram_model

# Every run draws the same examples, so a defect is caught or missed alike on
# each run; `--hypothesis-profile explore` draws fresh ones instead.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile("tier1")

# The four-leaf worked example: masses 0.504 / 0.126 / 0.27 / 0.1 under the
# boundary-inclusive epsilon:0.1 rule, total mass exactly 1.
FIG_TREE_DOC = {
    "vocab": ["a", "b", "c", "d", "e", "f", "g", "h", "<eos>"],
    "eos": "<eos>",
    "transitions": {
        "": {"a": 0.9, "b": 0.1},
        "a": {"c": 0.7, "d": 0.3},
        "a c": {"e": 0.8, "f": 0.2},
        "a c e": {"<eos>": 1.0},
        "a c f": {"<eos>": 1.0},
        "a d": {"<eos>": 1.0},
        "b": {"g": 0.95, "h": 0.05},
        "b g": {"<eos>": 1.0},
        "b h": {"<eos>": 1.0},
    },
}


@pytest.fixture
def fig_tree_model() -> TableModel:
    return TableModel.from_dict(FIG_TREE_DOC)


@pytest.fixture
def fig_tree_path(tmp_path):
    path = tmp_path / "fig_tree.json"
    path.write_text(json.dumps(FIG_TREE_DOC))
    return str(path)


def make_random_table_model(seed: int, max_vocab: int = 6, max_depth: int = 6,
                            branch_bias: float = 0.6, sharpness: float = 1.0) -> TableModel:
    """Random terminating table model: every path reaches eos within max_depth.

    branch_bias controls how often contexts branch versus collapsing to a
    forced continuation or terminating early. sharpness > 1 skews the raw
    weights toward peaked conditionals, mimicking overconfident models.
    """
    rng = random.Random(seed * 7919 + 13)
    n_plain = rng.randint(1, max_vocab - 1)
    tokens = tuple("abcdef"[:n_plain]) + ("<eos>",)
    eos = n_plain
    transitions: dict[tuple[int, ...], dict[int, float]] = {}

    def build(ctx: tuple[int, ...], depth: int) -> None:
        if depth >= max_depth - 1:
            transitions[ctx] = {eos: 1.0}
            return
        if depth > 0 and rng.random() > branch_bias:
            transitions[ctx] = {eos: 1.0}
            return
        size = rng.randint(1, min(3, n_plain))
        support = rng.sample(range(n_plain), size)
        if rng.random() < 0.4:
            support.append(eos)
        raw = [rng.random() ** sharpness + 0.1 / sharpness for _ in support]
        total = sum(raw)
        transitions[ctx] = {tok: w / total for tok, w in zip(support, raw)}
        for tok in support:
            if tok != eos:
                build(ctx + (tok,), depth + 1)

    build((), 0)

    doc = {
        "vocab": list(tokens),
        "eos": "<eos>",
        "transitions": {
            " ".join(tokens[t] for t in ctx): {tokens[t]: p for t, p in dist.items()}
            for ctx, dist in transitions.items()
        },
    }
    return TableModel.from_dict(doc)


@pytest.fixture
def random_model_factory():
    return make_random_table_model


@st.composite
def memo_models(draw):
    """A random table model, or a small char n-gram model whose contexts repeat."""
    if draw(st.booleans()):
        return make_random_table_model(draw(st.integers(0, 10_000)))
    return draw(ngram_memo_models())


@st.composite
def ngram_memo_models(draw):
    """A small char n-gram model whose contexts repeat: `memo_models`' n-gram branch."""
    letters = "abcd"[:draw(st.integers(1, 4))]
    lines = draw(st.lists(st.text(letters, min_size=1, max_size=6), min_size=1, max_size=6))
    return train_ngram_model("\n".join(lines), order=draw(st.integers(1, 3)),
                             alpha=draw(st.sampled_from([0.01, 0.5, 1.0])), tokenization="char")


class _StubState:
    def __init__(self):
        self.responses: dict[str, dict[str, float]] = {}
        self.payload: dict | None = None  # served as is to every request when set
        self.fail_first = 0
        self.failures_served = 0
        self.requests: list[dict] = []
        self.auth_headers: list[str | None] = []
        self.lock = threading.Lock()


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        state: _StubState = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        with state.lock:
            state.requests.append(body)
            state.auth_headers.append(self.headers.get("Authorization"))
            if state.failures_served < state.fail_first:
                state.failures_served += 1
                self.send_response(503)
                self.end_headers()
                return
        table = state.responses.get(body.get("prompt", ""))
        payload = state.payload
        if payload is None:
            if table is None:
                self.send_response(404)
                self.end_headers()
                return
            top_n = int(body.get("logprobs", 1))
            ranked = sorted(table.items(), key=lambda kv: -kv[1])[:top_n]
            payload = {"choices": [{"logprobs": {"top_logprobs": [dict(ranked)]}}]}
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output quiet
        pass


class StubServer:
    def __init__(self):
        self.httpd = HTTPServer(("127.0.0.1", 0), _StubHandler)
        self.httpd.state = _StubState()
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1/completions"

    @property
    def state(self) -> _StubState:
        return self.httpd.state

    def configure(self, responses: dict[str, dict[str, float]], fail_first: int = 0,
                  payload: dict | bytes | None = None):
        """Answer each prompt from `responses`, or every request with
        `payload`: a JSON document, or bytes served verbatim."""
        self.state.responses = responses
        self.state.payload = payload
        self.state.fail_first = fail_first
        self.state.failures_served = 0
        self.state.requests.clear()
        self.state.auth_headers.clear()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()
