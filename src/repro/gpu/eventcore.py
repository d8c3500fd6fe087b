"""Compatibility name for the retired ``event`` engine.

The event core's next-event horizon over MSHR-full retry spans now lives in
:class:`repro.gpu.fastcore.FastStreamingMultiprocessor`, the default
``fast`` engine.  This empty subclass only keeps existing imports of
``EventStreamingMultiprocessor`` working; it is not a registered engine.
"""

from repro.gpu.fastcore import FastStreamingMultiprocessor


class EventStreamingMultiprocessor(FastStreamingMultiprocessor):
    """The fast core under its former ``event`` name (no behaviour of its own)."""
