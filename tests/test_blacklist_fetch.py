"""`ddosgate blacklist fetch`, the one command that talks HTTP: every
failure is exit 1 with one `error:` line and `--out` as it was, and a
success replaces `--out` whole, as `run` and `gen` replace theirs.

The HTTP cases serve canned responses from a server on 127.0.0.1 in a
thread of the test process; nothing leaves the machine.
"""

import http.server
import json
import os
import socket
import socketserver
import stat
import threading
from pathlib import Path

import pytest

from ddosgate import blacklist, cli
from ddosgate.blacklist import MAX_FEED_BYTES

OLD = b"192.0.2.0/24\n"
FEED = b"203.0.113.0/24\n10.77.1.2/16\n"


def _response(body: bytes, status: bytes = b"200 OK") -> bytes:
    return b"HTTP/1.1 %s\r\nContent-Length: %d\r\n\r\n%s" % (status, len(body), body)


def _feed_of(size: int) -> bytes:
    """A feed of exactly ``size`` bytes: one entry and one long comment."""
    return b"10.0.0.0/8\n#" + b"x" * (size - 12)


@pytest.fixture
def serve(monkeypatch):
    """``serve(raw)`` starts a loopback server that answers each request
    with the bytes ``raw`` as they are, status line included, then closes
    the connection; it returns the feed URL."""
    monkeypatch.setenv("no_proxy", "*")  # a proxy from the environment must not see the request
    servers = []

    def start(raw: bytes) -> str:
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                try:
                    self.wfile.write(raw)
                except ConnectionError:
                    pass  # the client stopped reading, as it does past MAX_FEED_BYTES
                self.close_connection = True

            def log_message(self, *args):
                pass

        # a plain TCPServer: HTTPServer's bind would look its own address up by name
        server = socketserver.TCPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return "http://127.0.0.1:%d/drop.txt" % server.server_address[1]

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _fetch(cli_run, tmp_path, *source):
    out = tmp_path / "feed.txt"
    out.write_bytes(OLD)
    return out, cli_run(["blacklist", "fetch", *source, "--out", str(out)], timeout=60)


def _assert_failed_untouched(proc, out):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: fetch failed, output untouched: "), proc.stderr
    assert out.read_bytes() == OLD
    assert sorted(os.listdir(out.parent)) == [out.name]  # no temporary file left behind


@pytest.mark.parametrize("raw", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n10.0.0.0/8\n",  # body cut short
    b"GARBAGE\r\n\r\n",  # bad status line
    b"HTTP/1.1 200 OK\r\n\r\n" + _feed_of(MAX_FEED_BYTES + 1),  # one byte over the bound
    _response(_feed_of(MAX_FEED_BYTES + 1)),  # the same, with its length announced
    _response(b"", b"404 Not Found"),
], ids=["cut_short", "bad_status_line", "over_max", "over_max_with_length", "not_found"])
def test_failed_download_exits_1_and_leaves_out_untouched(raw, serve, cli_run, tmp_path):
    out, proc = _fetch(cli_run, tmp_path, "--url", serve(raw))
    _assert_failed_untouched(proc, out)


def _redirect(location: str) -> bytes:
    return b"HTTP/1.1 302 Found\r\nLocation: %s\r\nContent-Length: 0\r\n\r\n" % location.encode()


def test_redirect_to_another_scheme_is_refused(serve, cli_run, tmp_path):
    with socket.socket() as ftp:  # where the redirect points; it must see no connection
        ftp.bind(("127.0.0.1", 0))
        ftp.listen()
        ftp.setblocking(False)
        target = "ftp://127.0.0.1:%d/drop.txt" % ftp.getsockname()[1]
        out, proc = _fetch(cli_run, tmp_path, "--url", serve(_redirect(target)))
        _assert_failed_untouched(proc, out)
        assert f"not an http(s) URL: {target!r}" in proc.stderr
        with pytest.raises(BlockingIOError):
            ftp.accept()


def test_redirect_to_http_is_followed(serve, cli_run, tmp_path):
    out, proc = _fetch(cli_run, tmp_path, "--url", serve(_redirect(serve(_response(FEED)))))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == b"10.77.0.0/16\n203.0.113.0/24\n"


@pytest.mark.parametrize("size", [MAX_FEED_BYTES, None], ids=["max_bytes", "small"])
def test_download_replaces_out(size, serve, cli_run, tmp_path):
    body = FEED if size is None else _feed_of(size)
    for raw in (_response(body), b"HTTP/1.1 200 OK\r\n\r\n" + body):  # with and without a length
        out, proc = _fetch(cli_run, tmp_path, "--url", serve(raw))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (b"10.0.0.0/8\n" if size else b"10.77.0.0/16\n203.0.113.0/24\n")
        assert sorted(os.listdir(tmp_path)) == ["feed.txt"]


def test_file_fetch_replaces_out(cli_run, tmp_path):
    feed = tmp_path / "raw.txt"
    feed.write_bytes(FEED)
    out, proc = _fetch(cli_run, tmp_path, "--path", str(feed))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == b"10.77.0.0/16\n203.0.113.0/24\n"
    assert sorted(os.listdir(tmp_path)) == ["feed.txt", "raw.txt"]


@pytest.mark.parametrize("over", [0, 1], ids=["max_bytes", "one_over"])
def test_file_fetch_is_bounded_as_a_download_is(over, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(blacklist, "MAX_FEED_BYTES", 64)
    feed = tmp_path / "raw.txt"
    feed.write_bytes(_feed_of(64 + over))
    out = tmp_path / "feed.txt"
    out.write_bytes(OLD)
    code = cli.main(["blacklist", "fetch", "--path", str(feed), "--out", str(out)])
    if over:
        assert code == 1
        assert capsys.readouterr().err.startswith("error: fetch failed, output untouched: ")
        assert out.read_bytes() == OLD
    else:
        assert code == 0
        assert out.read_bytes() == b"10.0.0.0/8\n"
    assert sorted(os.listdir(tmp_path)) == ["feed.txt", "raw.txt"]


# Each command that writes an --out, run from a directory that holds
# raw.txt (a feed) and t.jsonl (a trace): its arguments but --out, and the
# suffix of the sidecar it writes beside a regular --out, or None.
OUT_COMMANDS = {
    "fetch": (["blacklist", "fetch", "--path", "raw.txt"], None),
    "run": (["run", "--trace", "t.jsonl", "--set", f"sandbox.log_path={os.devnull}"], None),
    "gen": (["gen", "--scenario", "normal", "--seed", "1", "--duration", "1"], ".manifest.json"),
}
TRACE = "".join(json.dumps({"event_id": i, "ts": float(i), "kind": "udp", "src_ip": "10.0.0.2",
                            "dst_ip": "10.0.0.1", "src_port": 1, "dst_port": 53, "length": 8,
                            "checksum": 0, "payload_b64": ""}) + "\n" for i in (1, 2))


@pytest.fixture(params=OUT_COMMANDS.values(), ids=OUT_COMMANDS)
def out_command(request, tmp_path, tmp_path_factory, monkeypatch):
    """``(main, new, listing)`` for one command of OUT_COMMANDS, run from
    ``tmp_path``: ``main(out)`` runs it in-process with ``--out out`` and
    returns its exit code, ``new`` is what it writes to a new file, and
    ``listing(*names)`` is ``tmp_path``'s sorted listing once it has written
    to ``names``, the inputs and the sidecar of the first name included."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_bytes(FEED)
    (tmp_path / "t.jsonl").write_text(TRACE)
    args, sidecar = request.param

    def main(out) -> int:
        return cli.main([*args, "--out", str(out)])

    def listing(*names) -> list:
        return sorted(["raw.txt", "t.jsonl", *names, *([names[0] + sidecar] if sidecar else [])])

    reference = tmp_path_factory.mktemp("reference") / "out.txt"
    assert main(reference) == 0
    return main, reference.read_bytes(), listing


def test_out_is_swapped_in_whole(out_command, tmp_path, monkeypatch):
    """When ``--out`` changes, it changes in one ``os.replace`` from a
    complete file beside it; until then it holds the old bytes."""
    main, new, listing = out_command
    out = tmp_path / "out.txt"
    out.write_bytes(OLD)
    seen = []
    real_replace = os.replace

    def replace(src, dst):
        if dst == str(out):
            seen.append((os.path.dirname(src), Path(src).read_bytes(), out.read_bytes()))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(out) == 0
    assert seen == [(str(tmp_path), new, OLD)]
    assert sorted(os.listdir(tmp_path)) == listing("out.txt")


def test_fetch_may_normalize_a_feed_in_place(tmp_path):
    # fetch reads the whole feed before it writes, so --out may name --path
    feed = tmp_path / "raw.txt"
    feed.write_bytes(FEED)
    assert cli.main(["blacklist", "fetch", "--path", str(feed), "--out", str(feed)]) == 0
    assert feed.read_bytes() == b"10.77.0.0/16\n203.0.113.0/24\n"
    assert sorted(os.listdir(tmp_path)) == ["raw.txt"]


def test_failed_write_keeps_the_old_feed(tmp_path, monkeypatch, capsys):
    feed = tmp_path / "raw.txt"
    feed.write_bytes(FEED)
    out = tmp_path / "feed.txt"
    out.write_bytes(OLD)

    def replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace)
    assert cli.main(["blacklist", "fetch", "--path", str(feed), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: write failed, output untouched: ")
    assert out.read_bytes() == OLD
    assert sorted(os.listdir(tmp_path)) == ["feed.txt", "raw.txt"]


@pytest.mark.parametrize("where", ["a_directory", "a_missing_directory"])
def test_unwritable_out_exits_1(where, cli_run, tmp_path):
    feed = tmp_path / "raw.txt"
    feed.write_bytes(FEED)
    out = tmp_path / "out"
    if where == "a_directory":
        out.mkdir()
    else:
        out = out / "feed.txt"
    proc = cli_run(["blacklist", "fetch", "--path", str(feed), "--out", str(out)])
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: write failed, output untouched: ")
    assert sorted(os.listdir(tmp_path)) == (["out", "raw.txt"] if where == "a_directory" else ["raw.txt"])
    assert not out.is_file()


def test_symlink_out_keeps_its_link_and_replaces_its_file(out_command, tmp_path):
    main, new, listing = out_command
    real = tmp_path / "real.txt"
    real.write_bytes(OLD)
    out = tmp_path / "out.txt"
    out.symlink_to(real.name)
    assert main(out) == 0
    assert os.readlink(out) == real.name
    assert real.read_bytes() == new
    assert sorted(os.listdir(tmp_path)) == listing("out.txt", "real.txt")


def test_fifo_out_is_written_through(out_command, tmp_path):
    main, new, listing = out_command
    out = tmp_path / "out.pipe"
    os.mkfifo(out)
    reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        assert main(out) == 0
        assert os.read(reader, 1 << 16) == new
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(out).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["out.pipe", "raw.txt", "t.jsonl"]  # no sidecar
