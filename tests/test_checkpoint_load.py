"""load_checkpoint reads a checkpoint in bounded chunks: each long base64 value is spliced out of the text
and read back from the file. These tests hold it to the plain route, checkpoint_from_document(load_json(path)):
the same state bit for bit, or the same exception type and message."""
import base64
import json
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathfield.trainer as trainer_module
from pathfield.dataio import SyntheticConfig, gen_dataset, load_json
from pathfield.neural_field import HeadConfig
from pathfield.paths import Path
from pathfield.trainer import (
    TrainConfig,
    _parameter_registry,
    adam_step,
    checkpoint_from_document,
    checkpoint_to_document,
    fit,
    init_state,
    load_checkpoint,
    save_checkpoint,
)

Z = np.array([0.0, 0.0, 1.0])
LONG = re.compile(rb':"([A-Za-z0-9+/=]{4096,})"')  # a value the chunked route splices


def line_path(offset_y, k=12):
    pos = np.linspace([0.0, offset_y, 0.0], [1.0, offset_y, 0.0], k)
    return Path(np.concatenate([pos, np.tile(Z, (k, 1))], axis=1))


def plain_load(path):
    return checkpoint_from_document(load_json(path))


def outcome(load, path):
    """The loaded state as its document (every array as base64 of its bytes) and its moments' keys,
    or the type and message of what the load raised."""
    try:
        state = load(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return checkpoint_to_document(state), list(state.moments)


def no_fallback(path):
    raise AssertionError(f"{path} was loaded through load_json")


def desk_state():
    """The desk fit's shapes (8 slots, a 2 x 32 head, code 16) on three generated objects, 5 epochs."""
    records = gen_dataset(SyntheticConfig(strokes=4, waypoints_per_stroke=20, seed=0), objects=3)
    config = TrainConfig(slots=8, train_samples=16, epochs=5, step_size=5e-3, lr_schedule="cosine", lr_min=1e-5,
                         head=HeadConfig(depth=2, width=32, code_dim=16, activation="finer", omega0=10.0))
    return fit({r.object_id: r.gt_paths for r in records}, config)


def paper_state():
    """The paper's head (4 x 512, code 384, 40 slots) and one object after one Adam step."""
    state = init_state({"object-000": [line_path(0.0)]},
                       TrainConfig(slots=40, head=HeadConfig(depth=4, width=512, code_dim=384, activation="finer")))
    rng = np.random.default_rng(0)
    adam_step(state, {"head": rng.normal(0.0, 0.1, state.head.vector.shape),
                      "codewords.object-000": rng.normal(0.0, 0.1, (40, 384))})
    return state


def small_state():
    """A small checkpoint whose long values straddle small reads: mod_w0 and each codeword bank are
    384 floats, exactly the 4096 base64 characters of a long value; the ids put `:"` next to a value."""
    ids = ["colon:", 'quo"te', ':"']
    dataset = {object_id: [line_path(0.1 * k)] for k, object_id in enumerate(ids)}
    state = init_state(dataset, TrainConfig(slots=24, epochs=1, train_samples=8,
                                            head=HeadConfig(depth=1, width=24, code_dim=16, conf_hidden=8)))
    rng = np.random.default_rng(1)
    adam_step(state, {"head": rng.normal(0.0, 0.1, state.head.vector.shape)}
              | {f"codewords.{k}": rng.normal(0.0, 0.1, (24, 16)) for k in ids[:2]})
    return state


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A saved checkpoint of each kind; `tiny` holds no long value."""
    base = tmp_path_factory.mktemp("checkpoints")
    states = {"desk": desk_state(), "paper": paper_state(), "small": small_state(),
              "tiny": fit({"obj": [line_path(0.0), line_path(0.5)]},
                          TrainConfig(slots=4, train_samples=12, epochs=3, head=HeadConfig(depth=2, width=8, code_dim=4)))}
    paths = {}
    for kind, state in states.items():
        paths[kind] = base / f"{kind}.json"
        save_checkpoint(state, paths[kind])
    return paths


def spliced_values(path) -> int:
    with open(path, "rb") as fh:
        return len(trainer_module._splice_long_values(fh)[1])


class TestSameState:
    @pytest.mark.parametrize("kind", ["desk", "paper", "small", "tiny"])
    def test_equals_plain_route_without_falling_back(self, files, kind):
        path = files[kind]
        expected = outcome(plain_load, path)
        assert isinstance(expected[0], dict)
        with mock.patch.object(trainer_module, "load_json", no_fallback):
            assert outcome(load_checkpoint, path) == expected
        assert spliced_values(path) == len(LONG.findall(path.read_bytes()))
        assert (spliced_values(path) == 0) == (kind == "tiny")

    @given(chunk=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_any_read_size_gives_the_same_state(self, files, chunk):
        path = files["small"]
        expected = outcome(plain_load, path)
        with mock.patch.object(trainer_module, "_LOAD_CHUNK", chunk), \
                mock.patch.object(trainer_module, "load_json", no_fallback):
            assert outcome(load_checkpoint, path) == expected
            assert spliced_values(path) == len(LONG.findall(path.read_bytes())) == 10

    def test_peak_memory_is_the_arrays_and_little_more(self, files):
        # the plain route holds the whole text and json's copy of every base64 string besides the arrays
        path = files["paper"]
        state = plain_load(path)
        arrays = sum(arr.nbytes for arr in _parameter_registry(state).values())
        arrays += sum(slot[key].nbytes for slot in state.moments.values() for key in "mv")
        del state
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays + os.path.getsize(path) / 4

    def test_splicing_holds_a_few_reads(self, files):
        # the paper head's largest values are 2.8 MB of base64, dozens of reads long
        with open(files["paper"], "rb") as fh, mock.patch.object(trainer_module, "_LOAD_CHUNK", 1 << 16):
            tracemalloc.start()
            try:
                text, spans = trainer_module._splice_long_values(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(length for _, length in spans) > 40 << 16
        assert peak < 4 * (1 << 16) + 2 * len(text)


def first_long(text: bytes) -> re.Match:
    match = LONG.search(text)
    assert match is not None
    return match


def insert_in_long_value(piece: bytes):
    def edit(text):
        body = first_long(text).span(1)
        middle = (body[0] + body[1]) // 2
        return text[:middle] + piece + text[middle:]
    return edit


def escape_a_slash(text):
    match = next(m for m in LONG.finditer(text) if b"/" in m.group(1))
    at = text.index(b"/", match.start(1))
    return text[:at] + b"\\" + text[at:]


def after_long_value(replacement: bytes):
    def edit(text):
        end = first_long(text).end()  # the byte after the closing quote
        return text[:end] + replacement + text[end + 1:]
    return edit


def truncate(where):
    def edit(text):
        body = first_long(text).span(1)
        cut = {"in-value": (body[0] + body[1]) // 2, "after-value": body[1] + 1, "at-end": len(text) - 2}[where]
        return text[:cut]
    return edit


def with_top_level(key: str, value_text: bytes):
    """The text with `"key":value_text` as the document's first member."""
    def edit(text):
        return b"{" + json.dumps(key).encode() + b":" + value_text + b"," + text[1:]
    return edit


def rename_object(old: str, new: str):
    def edit(text):
        doc = json.loads(text)
        for section in ("parameters", "moments"):
            doc[section][f"codewords.{new}"] = doc[section].pop(f"codewords.{old}")
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    return edit


def short_value_as(name: str, value_text: bytes):
    def edit(text):
        return re.sub(rb'("' + re.escape(name.encode()) + rb'":)"[^"]*"', lambda m: m.group(1) + value_text, text,
                      count=1)
    return edit


EDITS = {
    "escaped-slash": (escape_a_slash, "loads"),
    "utf8-byte-order-mark": (lambda text: b"\xef\xbb\xbf" + text, "Unexpected UTF-8 BOM"),
    "utf16": (lambda text: text.decode("ascii").encode("utf-16"), "not UTF-8"),
    "control-character": (insert_in_long_value(b"\x01"), "parse error"),
    "non-ascii-character": (insert_in_long_value("é".encode()), "is not base64 text"),
    "non-utf8-byte": (insert_in_long_value(b"\xff"), "not UTF-8"),
    "nul-in-an-id": (rename_object("colon:", "nul\x00:"), "loads"),
    # without the \u0000 rule mod_w0 would read the unread note's 384 zeros
    "placeholder-lookalike": (lambda text: with_top_level("note", b'"' + b"A" * 4096 + b'"')(
        short_value_as("head.mod_w0", b'"\\u00000"')(text)), "is not base64 text"),
    "syntax-error-after-long-value": (after_long_value(b";"), "parse error"),
    "truncated-in-value": (truncate("in-value"), "parse error"),
    "truncated-after-value": (truncate("after-value"), "parse error"),
    "truncated-at-end": (truncate("at-end"), "parse error"),
    "colon-string-before-long-run": (with_top_level("x:", json.dumps([0.5] * 1500).encode()), "loads"),
    "unread-long-value": (with_top_level("note", b'"' + b"A" * 5000 + b'"'), "loads"),
    "unread-long-value-with-control-character": (
        with_top_level("note", b'"' + b"A" * 2500 + b"\x01" + b"A" * 2500 + b'"'), "parse error"),
    "long-value-not-base64": (short_value_as("head.mod_w0", b'"' + b"!" * 4096 + b'"'), "is not base64 text"),
    "long-value-with-escape": (short_value_as("head.mod_w0", b'"' + b"A" * 4096 + b'\\u0041AAA"'), "holds 3075 bytes"),
}


class TestSameOutcomeOnEditedFiles:
    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_matches_plain_route(self, files, tmp_path, case):
        edit, expected_kind = EDITS[case]
        path = tmp_path / "ckpt.json"
        path.write_bytes(edit(files["small"].read_bytes()))
        expected = outcome(plain_load, path)
        if expected_kind == "loads":
            assert isinstance(expected[0], dict), expected
        else:
            assert expected_kind in expected[1], expected
        for chunk in (1, 2, 3, 7, 64, 4096, 1 << 20):
            with mock.patch.object(trainer_module, "_LOAD_CHUNK", chunk):
                assert outcome(load_checkpoint, path) == expected, chunk


def saved_document(tmp_path, doc):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return path


class TestCheckpointErrorsThroughAFile:
    """Each checkpoint_from_document raise that no other test names, reached through load_checkpoint."""

    @pytest.fixture
    def doc(self, files):
        return json.loads(files["tiny"].read_text())

    def test_array_that_is_not_base64(self, doc, tmp_path):
        doc["parameters"]["head.out_b"] = "not base64!"
        with pytest.raises(ValueError, match=r"^checkpoint array 'head.out_b' is not base64 text: "):
            load_checkpoint(saved_document(tmp_path, doc))

    def test_array_of_another_size(self, doc, tmp_path):
        doc["moments"]["head.out_b"]["v"] = base64.b64encode(np.zeros(5, "<f8").tobytes()).decode()
        with pytest.raises(ValueError, match=r"^checkpoint array 'head.out_b.v' holds 40 bytes, "
                                             r"expected shape \(6,\) from the config$"):
            load_checkpoint(saved_document(tmp_path, doc))

    def test_moments_of_an_unknown_parameter(self, doc, tmp_path):
        doc["moments"]["head.ghost_w0"] = doc["moments"]["head.out_b"]
        with pytest.raises(ValueError, match=r"^checkpoint has moments for unknown parameter 'head.ghost_w0'$"):
            load_checkpoint(saved_document(tmp_path, doc))

    @pytest.mark.parametrize("key", ["config", "epoch", "loss_history", "parameters", "moments"])
    def test_missing_key(self, doc, tmp_path, key):
        del doc[key]
        with pytest.raises(ValueError, match=f"^checkpoint document is missing key '{key}'$"):
            load_checkpoint(saved_document(tmp_path, doc))
