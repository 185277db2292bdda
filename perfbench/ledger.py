"""Per-call layer ledger: split each traced call's wall time over layers.

Every instant of a call, from the stub call to its return, is given to
exactly one owner, so the owners' times add up to the call's latency:

1. A span recorded off the calling thread for this call's RSR request
   id (endpoint reader, dispatch or admission worker, pipelined demux;
   plus the synthesized ``nexus.endpoint.hop`` from the reader's request
   decode to the start of dispatch) owns the instant if one is active.
   Among several, the latest-started wins -- the innermost on one thread.
2. Otherwise the calling thread's innermost active span owns it, except
   while that thread is blocked waiting for the reply: inside its
   ``recv`` before the reply was sent, or inside the endpoint call after
   its request went out.  That time is ``unattributed`` -- thread
   hand-offs, scheduling and code between the wrapped functions.

A ``recv`` counts from the end of the ``send`` it receives (the reply's
send for a reply, the request's for a request): before that it only
waits.  Self time therefore means a span minus what its children and
other threads' spans for the same call cover.
"""

from __future__ import annotations

from tracing import RECV, REQ, SEND

__all__ = ["attribute", "UNATTRIBUTED", "HOP"]

UNATTRIBUTED = "unattributed"
HOP = "nexus.endpoint.hop"
CLIENT_ENDPOINT = "nexus.endpoint.client"
JOIN_LAYERS = ("core.context.dispatch", "core.glue.server")


def _last_send_end(spans, limit):
    ends = [s[2] for s in spans if s[4] & SEND and s[2] <= limit]
    return max(ends) if ends else None


def attribute(call):
    """Split one call into ``({owner: seconds}, present_layers, wait)``.

    ``present_layers`` names every layer the call crossed; ``wait`` is the
    time the calling thread spent blocked in the endpoint call or its
    ``recv`` (the caller's view of ``nexus.endpoint.call_wait``).
    """
    t0, t1 = call.t0, call.t1
    mine = [("idl.stub", t0, t1, 0, 0)] + list(call.spans)
    other = list(call.other)
    request_send_end = _last_send_end(mine, t1)
    client_send_end = request_send_end if request_send_end is not None \
        else t1

    decode_ends = [s[2] for s in other
                   if s[0] == "nexus.rsr.decode" and s[4] & REQ]
    join_starts = [s[1] for s in other if s[0] in JOIN_LAYERS]
    if decode_ends and join_starts:
        hop_start, hop_end = min(decode_ends), min(join_starts)
        if hop_end > hop_start:
            other.append((HOP, hop_start, hop_end, 0, 0))

    # A recv only works once its message has been sent.
    reply_send_end = _last_send_end(other, t1)
    blocked_until = {}
    clipped = []
    for span in other:
        if span[4] & RECV:
            sent = request_send_end if span[4] & REQ else reply_send_end
            if sent is not None:
                if sent >= span[2]:
                    continue
                span = span[:1] + (max(span[1], sent),) + span[2:]
        clipped.append(span)
    other = clipped
    for i, span in enumerate(mine):
        if span[4] & RECV:
            blocked_until[i] = reply_send_end if reply_send_end is not None \
                else span[1]

    present = {s[0] for s in mine}
    present.update(s[0] for s in other)

    points = {t0, t1}
    for span in mine:
        points.add(span[1])
        points.add(span[2])
    for span in other:
        if span[2] > t0 and span[1] < t1:
            points.add(max(span[1], t0))
            points.add(min(span[2], t1))
    points = sorted(p for p in points if t0 <= p <= t1)

    owners: dict = {}
    wait = 0.0
    for a, b in zip(points, points[1:]):
        if b <= a:
            continue
        mid = (a + b) * 0.5
        best = None
        for span in other:
            if span[1] <= mid < span[2] and (
                    best is None or span[1] > best[1]
                    or (span[1] == best[1] and span[2] < best[2])):
                best = span
        inner, inner_i = None, -1
        for i, span in enumerate(mine):
            if span[1] <= mid < span[2] and (
                    inner is None or span[1] > inner[1]
                    or (span[1] == inner[1] and span[2] < inner[2])):
                inner, inner_i = span, i
        waiting = inner is not None and (
            inner[0] == CLIENT_ENDPOINT or inner[4] & RECV)
        if waiting:
            wait += b - a
        if best is not None:
            owner = best[0]
        elif inner is None:
            owner = UNATTRIBUTED
        elif inner[4] & RECV and mid < blocked_until.get(inner_i, t1):
            owner = UNATTRIBUTED
        elif inner[0] == CLIENT_ENDPOINT and mid >= client_send_end:
            owner = UNATTRIBUTED
        else:
            owner = inner[0]
        owners[owner] = owners.get(owner, 0.0) + (b - a)
    return owners, present, wait
