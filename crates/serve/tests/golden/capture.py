#!/usr/bin/env python3
"""Re-capture wire.txt: replay its request lines against a squid-serve binary and
print the transcript with that binary's replies (comments are kept as they are).

    python3 capture.py target/release/squid-serve wire.txt > wire.new
"""
import json, os, re, socket, subprocess, sys, tempfile, time

BIN = sys.argv[1]
SCRIPT = sys.argv[2]
tmp = tempfile.mkdtemp(prefix="squid-wire-golden-")

procs = {}
addrs = {}
repl = {}
conns = {}

def start(node):
    flags = {
        "plain": ["--max-sessions", "2"],
        "limited": ["--rate-limit", "0.001:1"],
        "primary": ["--journal", f"{tmp}/primary.journal", "--replicate-to", "127.0.0.1:0"],
    }
    if node == "standby":
        if "primary" not in procs:
            start("primary")
        f = ["--journal", f"{tmp}/standby.journal", "--standby-of", repl["primary"]]
    else:
        f = flags[node]
    p = subprocess.Popen([BIN, "--addr", "127.0.0.1:0", *f, "mini"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    procs[node] = p
    line = p.stdout.readline()
    assert line.startswith("listening on "), line
    addrs[node] = line.split()[-1]
    if "--replicate-to" in f:
        line = p.stdout.readline()
        assert line.startswith("replicating on "), line
        repl[node] = line.split()[-1]

def connect(node):
    host, port = addrs[node].rsplit(":", 1)
    s = socket.create_connection((host, int(port)))
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return s.makefile("rwb", buffering=0)

def round_trip(f, line):
    f.write(line.encode() + b"\n")
    return f.readline().decode().rstrip("\n")

def health(node):
    f = connect(node)
    r = json.loads(round_trip(f, '{"op":"health"}'))
    f.close()
    return r

def sync():
    for node in ("primary", "standby"):
        if node not in procs:
            start(node)
    deadline = time.time() + 20
    while time.time() < deadline:
        p = health("primary").get("replication", {})
        s = health("standby").get("replication", {})
        if p.get("standby_connected") and p.get("lag_records") == 0 and s.get("link_up") and s.get("primary"):
            return
        time.sleep(0.02)
    raise SystemExit("never synced")

def mask(reply):
    reply = re.sub(r'"uptime_ms":\d+', '"uptime_ms":0', reply)
    reply = re.sub(r'"(tables|inverted|stats|derived)":\d+', r'"\1":0', reply)
    if '"code":"rate_limited"' in reply:
        reply = re.sub(r'"retry_after_ms":\d+', '"retry_after_ms":0', reply)
    reply = re.sub(r'"primary":"127\.0\.0\.1:\d+"', '"primary":"<primary>"', reply)
    return reply

cur = None
for raw in open(SCRIPT):
    line = raw.rstrip("\n")
    if line.startswith("= "):
        node, label = line[2:].split()
        if node not in procs:
            start(node)
        if (node, label) not in conns:
            conns[(node, label)] = connect(node)
        cur = conns[(node, label)]
        print(line)
    elif line.startswith("! sync"):
        sync()
        print(line)
    elif line.startswith(">! ") or line.startswith("> "):
        req = line.split(" ", 1)[1]
        print(line)
        print("< " + mask(round_trip(cur, req)))
    elif line.startswith("< "):
        continue
    else:
        print(line)

for p in procs.values():
    p.kill()
    p.wait()
