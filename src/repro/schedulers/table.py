"""The scheduler table: the one mapping from scheduler name to scheduler,
read by ``repro schedule --scheduler``, the daemon's ``scheduler`` request
field (:data:`repro.serve.protocol.SCHEDULER_NAMES`) and the fuzz zoo."""

from __future__ import annotations

from typing import Callable

from ..core.lookahead import algorithm_lookahead, local_block_orders
from ..ir.basicblock import Trace
from ..machine.model import MachineModel
from .list_scheduler import (
    block_orders_with_priority,
    critical_path_priority,
    source_order_priority,
)

#: A trace and a machine in, one emitted instruction order per block out.
SchedulerFn = Callable[[Trace, MachineModel], list[list[str]]]


def anticipatory_block_orders(trace: Trace, machine: MachineModel) -> list[list[str]]:
    return algorithm_lookahead(trace, machine).block_orders


def critical_path_block_orders(trace: Trace, machine: MachineModel) -> list[list[str]]:
    return block_orders_with_priority(trace, critical_path_priority, machine)


def source_block_orders(trace: Trace, machine: MachineModel) -> list[list[str]]:
    return block_orders_with_priority(trace, source_order_priority, machine)


SCHEDULERS: dict[str, SchedulerFn] = {
    "anticipatory": anticipatory_block_orders,
    "local": local_block_orders,
    "critical-path": critical_path_block_orders,
    "source": source_block_orders,
}
