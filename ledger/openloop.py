"""Open-loop load generation that does not hide stalls.

Requests are sent on a schedule fixed before the run, whether or not
earlier ones have finished, and each request's latency runs from the
moment it was *due*: when the program (or the generator itself) stalls,
the requests queued behind the stall are charged the wait. How late the
generator ran is returned beside the latencies, so a run in which the
generator, not the program, was the bottleneck can be marked invalid.
"""

from __future__ import annotations

import asyncio
from time import perf_counter

#: A run whose generator ran later than this at p99 is not a measurement
#: of the program.
LATE_LIMIT_MS = 10.0


async def drive(send, due: list[float]):
    """Call ``await send(i)`` for request ``i`` at ``due[i]`` seconds
    (ascending) after the start.

    Returns ``(start, sent, done, outcomes)``: the start time on the
    ``perf_counter`` clock, the offsets at which each request was
    actually sent and finished, and each request's result or exception.
    Latency from due time is ``done[i] - due[i]``; generator lateness is
    ``sent[i] - due[i]``.
    """
    n = len(due)
    sent = [0.0] * n
    done = [0.0] * n
    outcomes: list = [None] * n
    start = perf_counter()

    async def one(i: int) -> None:
        try:
            outcomes[i] = await send(i)
        except Exception as exc:  # noqa: BLE001 - a failed request is a data point
            outcomes[i] = exc
        done[i] = perf_counter() - start

    tasks = []
    for i in range(n):
        delay = due[i] - (perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        sent[i] = perf_counter() - start
        tasks.append(asyncio.ensure_future(one(i)))
    await asyncio.gather(*tasks)
    return start, sent, done, outcomes
