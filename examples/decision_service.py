"""The decision service end to end: one client API, HTTP, restart.

A miniature platform day: two apps with different policies talk to the
service through the one DecisionClient API — over real HTTP on the
qid-native v2 wire — one walls itself into a Chinese-Wall partition,
the platform restarts (sessions survive via their serialized state),
and the metrics show the shared label cache doing the heavy lifting.
Swapping the HttpClient for a LocalClient (as the restart section
does) changes a constructor, not the calling code.

Run:  python examples/decision_service.py
"""

import json

from repro.client import HttpClient, LocalClient, parse_text
from repro.server import DisclosureService, start_async_background

service = DisclosureService()
server = start_async_background(service)
host, port = server.host, server.port

client = HttpClient(f"http://{host}:{port}")  # negotiates the v2 qid wire

# Two apps: a birthday widget (Chinese Wall: profile-ish data OR likes,
# never both) and a music app that only ever gets likes.
client.register(
    "birthday-widget",
    [["user_birthday", "public_profile"], ["user_likes"]],
)
client.register("music-app", [["user_likes"]])

# Text parses once, client-side; the parsed objects serve every call
# (and on the v2 wire their interned ids are all that travels).
birthday = parse_text("SELECT birthday FROM user WHERE uid = me()", "fql", me=7)
music = parse_text("SELECT music FROM user WHERE uid = me()", "fql")

print(f"== talking v{client.protocol[-1]} over http://{host}:{port} ==")
print("== birthday-widget commits to partition 0 ==")
decision = client.submit("birthday-widget", birthday)
print(f"  birthday query: accepted={decision['accepted']}  ({decision['reason']})")

decision = client.submit("birthday-widget", music)
print(f"  music query:    accepted={decision['accepted']}  ({decision['reason']})")

print("== the same label, cached, serves music-app's session ==")
decision = client.submit("music-app", music)
print(f"  music query:    accepted={decision['accepted']}  cached={decision['cached']}")

print("== restart: serialized session state keeps the wall standing ==")
state = service.export_state()
client.close()
server.stop()

service2 = DisclosureService()
service2.import_state(json.loads(json.dumps(state)))  # e.g. via a checkpoint file
client2 = LocalClient(service2)  # same API, no sockets this time
decision = client2.submit("birthday-widget", music)
print(f"  music query after restart: accepted={decision['accepted']}")
print(f"  ({decision['reason']})")

metrics = service.metrics_snapshot()
print("== metrics ==")
print(f"  decisions: {metrics['decisions']}, "
      f"label-cache hit rate: {metrics['label_cache']['hit_rate']:.0%}, "
      f"p50 {metrics['latency']['p50_us']:.0f} µs")
