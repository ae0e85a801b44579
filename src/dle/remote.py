"""The remote model. `parse_model_spec` imports this module only for
``remote:`` specs, so local runs never load the HTTP stack."""

from __future__ import annotations

import json
import logging
import os
import time
import urllib.error
import urllib.request
from typing import Sequence

import numpy as np

from .errors import ConfigError, RemoteError
from .model import EOS_TOKEN, SparseRow, Vocabulary

log = logging.getLogger(__name__)

REMOTE_URL_ENV = "DLE_REMOTE_URL"
REMOTE_KEY_ENV = "DLE_REMOTE_KEY"


class RemoteModel:
    """Adapter for an HTTP endpoint serving top-N next-token log-probabilities.

    The request body carries the prompt text, a request for exactly one new
    token, and the number of top alternatives. The returned tokens are the
    whole support, renormalized; a warning is logged when their raw mass is
    too small to trust threshold rules. Token strings are interned into a
    growing vocabulary with stable ids. Transient failures are retried with
    exponential backoff. The base URL and auth token default to
    DLE_REMOTE_URL / DLE_REMOTE_KEY.
    """

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 top_n: int = 20, eos_token: str = EOS_TOKEN,
                 max_retries: int = 3, backoff: float = 0.1, timeout: float = 10.0,
                 low_mass_warn: float = 0.5):
        base_url = base_url or os.environ.get(REMOTE_URL_ENV)
        if not base_url:
            raise ConfigError(f"remote model needs a base URL ({REMOTE_URL_ENV} unset)")
        if top_n < 1:
            raise ConfigError(f"top_n must be >= 1, got {top_n}")
        self.base_url = base_url
        self.api_key = api_key if api_key is not None else os.environ.get(REMOTE_KEY_ENV)
        self.top_n = top_n
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.low_mass_warn = low_mass_warn
        self._tokens: list[str] = [eos_token]
        self._ids: dict[str, int] = {eos_token: 0}
        self._vocab = Vocabulary(tokens=(eos_token,), eos_id=0)

    @property
    def vocab(self) -> Vocabulary:
        # Tokens are only ever appended, so the count identifies a generation.
        if self._vocab.size != len(self._tokens):
            self._vocab = Vocabulary(tokens=tuple(self._tokens), eos_id=0)
        return self._vocab

    def _intern(self, token: str) -> int:
        idx = self._ids.setdefault(token, len(self._tokens))
        if idx == len(self._tokens):
            self._tokens.append(token)
        return idx

    def encode_prompt(self, text: str) -> tuple[int, ...]:
        return tuple(self._intern(word) for word in text.split())

    def decode(self, token_ids: Sequence[int]) -> str:
        return "".join(self._tokens[t] for t in token_ids)

    def context(self, prompt: Sequence[int], generated: Sequence[int]) -> tuple:
        """The whole prefix: the endpoint may condition on all of it."""
        return tuple(prompt), tuple(generated)

    def _post(self, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.base_url, data=body, headers=headers, method="POST")
        last_status = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return json.loads(resp.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                last_status = exc.code
                if exc.code < 500:
                    raise RemoteError(f"endpoint rejected request: HTTP {exc.code}",
                                      attempts=attempt + 1, last_status=exc.code) from exc
            except (urllib.error.URLError, TimeoutError, OSError, json.JSONDecodeError):
                pass
        raise RemoteError(f"endpoint unreachable after {self.max_retries + 1} attempts",
                          attempts=self.max_retries + 1, last_status=last_status)

    def next_distribution(self, prompt: Sequence[int], generated: Sequence[int]) -> SparseRow:
        """The returned top-N tokens, renormalized, with floor 0."""
        text = " ".join(self._tokens[t] for t in prompt) + self.decode(generated)
        doc = self._post({"prompt": text, "max_tokens": 1, "logprobs": self.top_n})
        try:
            top = doc["choices"][0]["logprobs"]["top_logprobs"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise RemoteError(f"malformed endpoint payload: {doc!r}") from exc
        if not top:
            raise RemoteError("endpoint returned no log-probabilities")

        ids = [self._intern(tok) for tok in top.keys()]
        raw = np.exp(np.fromiter(top.values(), dtype=np.float64))
        raw_mass = float(raw.sum())
        if raw_mass < self.low_mass_warn:
            log.warning("top-%d tokens cover only %.3f raw probability mass; "
                        "truncation thresholds may be unreliable", self.top_n, raw_mass)
        ids, probs = zip(*sorted(zip(ids, (raw / raw_mass).tolist())))
        return SparseRow(ids, probs, 0.0, len(self._tokens))
