"""Per-message link: the specification of ``Link``'s flush batching.

:class:`PerMessageLink` has the send-time semantics of
:class:`repro.sim.network.Link` — one trace record and one fault decision
per message, one latency sample and FIFO clamp per copy — but schedules
every copy as its own simulator event.  A flushing link must deliver the
same messages at the same times in the same order, in fewer events.
"""


class PerMessageLink:
    """One simulator event per delivered copy."""

    def __init__(self, simulator, source, target, deliver, latency, trace=None, fault_model=None):
        self.simulator, self.source, self.target = simulator, source, target
        self._deliver, self.latency = deliver, latency
        self.trace, self.fault_model = trace, fault_model
        self._last_delivery_time = simulator.now
        self.sent_count = self.delivered_count = self.dropped_count = 0

    def send(self, message):
        self.sent_count += 1
        now = self.simulator.now
        if self.trace is not None:
            self.trace.record_link(now, self.source, self.target, message)
        copies = 1
        if self.fault_model is not None:
            reason, copies = self.fault_model.decide(self.source, self.target, now)
            if reason is not None:
                self.dropped_count += 1
                if self.trace is not None:
                    self.trace.record_drop(now, self.source, self.target, message, reason)
                return
        for _ in range(copies):
            self._last_delivery_time = max(now + self.latency.sample(), self._last_delivery_time)
            self.simulator.schedule_at(self._last_delivery_time, self._on_deliver, message)

    def _on_deliver(self, message):
        self.delivered_count += 1
        self._deliver(message, self)
