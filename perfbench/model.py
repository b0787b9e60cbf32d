"""The benchmark's own model of the order-entry database.

Every operation the program answers ``ok`` is applied to this model, in
the benchmark's terms (no program code runs here).  After a run the
program's state, read item by item, must match the model exactly:
quantity on hand, order count and next order number, each order's
quantity, customer, paid and shipped multiplicities, and the item's
total payment.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

PAID = "paid"
SHIPPED = "shipped"


@dataclass
class OrderState:
    quantity: int
    customer: int
    paid: int = 0
    shipped: int = 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.quantity, self.customer, self.paid, self.shipped)


@dataclass
class ItemState:
    qoh: int
    next_order_no: int
    orders: dict[int, OrderState] = field(default_factory=dict)


class OrderEntryModel:
    """Expected state of the items a workload touches.

    The initial state mirrors ``build_order_entry_database``'s documented
    defaults: order ``o`` of every item has quantity ``order_quantity``,
    customer ``100 + o`` and no status events.
    """

    def __init__(
        self,
        n_items: int,
        orders_per_item: int,
        price: int,
        quantity_on_hand: int,
        order_quantity: int = 1,
    ) -> None:
        self.price = price
        self.items = [
            ItemState(
                qoh=quantity_on_hand,
                next_order_no=orders_per_item,
                orders={
                    o: OrderState(order_quantity, 100 + o) for o in range(1, orders_per_item + 1)
                },
            )
            for __ in range(n_items)
        ]
        self.problems: list[str] = []

    # ------------------------------------------------------------------
    # Acknowledged operations
    # ------------------------------------------------------------------
    def place(self, item: int, customer: int, quantity: int, order_no: Any) -> None:
        state = self.items[item]
        if not isinstance(order_no, int) or order_no in state.orders:
            self.problems.append(f"item {item}: place answered order number {order_no!r}")
            return
        state.orders[order_no] = OrderState(quantity, customer)
        state.next_order_no += 1

    def pay(self, item: int, order_no: int) -> None:
        self.items[item].orders[order_no].paid += 1

    def ship(self, item: int, order_no: int) -> None:
        state = self.items[item]
        order = state.orders[order_no]
        order.shipped += 1
        state.qoh -= order.quantity

    def restock(self, item: int, quantity: int) -> None:
        self.items[item].qoh += quantity

    def total_payment(self, item: int) -> int:
        orders = self.items[item].orders.values()
        return self.price * sum(o.quantity for o in orders if o.paid > 0)

    # ------------------------------------------------------------------
    # The check
    # ------------------------------------------------------------------
    def compare(self, observed: dict[int, dict[str, Any]]) -> list[str]:
        """Differences between the model and the program's state.

        *observed* maps item index to ``{"qoh", "next_order_no",
        "orders": {order_no: (quantity, customer, paid, shipped)},
        "total_payment"}``; ``total_payment`` may be None when the
        workload did not ask the program for it.
        """
        problems = list(self.problems)
        for item, seen in sorted(observed.items()):
            want = self.items[item]
            if seen["qoh"] != want.qoh:
                problems.append(f"item {item}: qoh {seen['qoh']} != model {want.qoh}")
            if seen["next_order_no"] != want.next_order_no:
                problems.append(
                    f"item {item}: next order number {seen['next_order_no']} "
                    f"!= model {want.next_order_no}"
                )
            if len(want.orders) != want.next_order_no:
                problems.append(f"item {item}: model holds {len(want.orders)} orders")
            seen_orders = seen["orders"]
            for order_no in sorted(set(seen_orders) | set(want.orders)):
                if order_no not in want.orders:
                    problems.append(f"item {item}: unexpected order {order_no}")
                elif order_no not in seen_orders:
                    problems.append(f"item {item}: order {order_no} missing")
                elif tuple(seen_orders[order_no]) != want.orders[order_no].as_tuple():
                    problems.append(
                        f"item {item}: order {order_no} is {tuple(seen_orders[order_no])}, "
                        f"model (qty, customer, paid, shipped) {want.orders[order_no].as_tuple()}"
                    )
            total = seen.get("total_payment")
            if total is not None and total != self.total_payment(item):
                problems.append(
                    f"item {item}: total payment {total} != model {self.total_payment(item)}"
                )
        return problems


def observe(built, items: Iterable[int]) -> dict[int, dict[str, Any]]:
    """Read the program's state of *items* straight from the objects.

    Uses the object model's raw accessors on a quiescent database (no
    transaction is running), the same objects a transaction would lock.
    """
    observed: dict[int, dict[str, Any]] = {}
    for index in items:
        item = built.item(index)
        orders = {}
        for order_no, order in item.impl_component("Orders").raw_scan():
            status = order.impl_component("Status").raw_get()
            orders[order_no] = (
                order.impl_component("Quantity").raw_get(),
                order.impl_component("CustomerNo").raw_get(),
                status.count(PAID),
                status.count(SHIPPED),
            )
        observed[index] = {
            "qoh": item.impl_component("QOH").raw_get(),
            "next_order_no": item.impl_component("NextOrderNo").raw_get(),
            "orders": orders,
            "total_payment": None,
        }
    return observed
