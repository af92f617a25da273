"""Trace summaries: one histogram pass per trace for every trace walk.

The trace-walk studies (Table 1's pattern counts, Table 2's PC stream,
Table 3's fetch statistics, the value-level ablations, the static
scheme's execution counts) and the activity model's block-serial PC
need only histograms of a trace, never its record order.
:func:`summarize` builds them in one pass over a trace's record list.
Operand values repeat heavily and a few static instructions dominate
the dynamic stream (the paper's premise), so a summary holds thousands
of entries where the trace holds hundreds of thousands of records.
"""

from collections import namedtuple

from repro.core.pc import BlockSerialPC
from repro.obs import tracing


class TraceSummary(namedtuple("TraceSummary", (
    "records", "operands", "execs", "instrs", "edges",
    "prefix_increments", "first_target", "final_pc",
))):
    """The histograms of one trace of ``records`` records.

    * ``operands``: each read value's read count, and under the key
      ``~value`` (negative: operand values are unsigned 32-bit words)
      each written value's write count, in first-seen order (each
      record's reads, then its write);
    * ``execs`` / ``instrs``: each PC's execution count / instruction,
      in first-execution order;
    * ``edges``: the count of each ``(pc, next pc)`` transition after
      the first redirect, a transition to any PC but ``pc + 4`` (a
      taken branch to ``pc + 4`` is an increment).  The records before
      it reduce to ``prefix_increments`` (the first record included)
      and its target ``first_target`` (``None``: no redirect);
      ``final_pc`` is the last record's PC.
    """

    __slots__ = ()

    def __repr__(self):
        return "TraceSummary(%d records, %d PCs, %d edges)" % (
            self.records, len(self.execs), len(self.edges),
        )

    def operand_counts(self, include_writes=True):
        """``{value: count}`` over the reads, and the writes unless
        ``include_writes`` is false, in first-seen order."""
        counts = {}
        for value, count in self.operands.items():
            if value < 0:
                if not include_writes:
                    continue
                value = ~value
            counts[value] = counts.get(value, 0) + count
        return counts

    def pc_payload(self, block_sizes):
        """Block-serial PC counters per block size (the ``pc`` walker's
        payload; see :class:`~repro.study.walkers.PCWalker`).  After the
        first redirect a model's PC is the trace's, so each edge is
        evaluated once and weighted by its count."""
        post = {}
        final_pc = None
        if self.first_target is not None:
            final_pc = self.final_pc
            for bits in block_sizes:
                post[str(bits)] = _edge_counters(self.edges, bits)
        return {
            "block_sizes": list(block_sizes),
            "prefix_increments": self.prefix_increments,
            "first_target": self.first_target,
            "final_pc": final_pc,
            "post": post,
        }


def _edge_counters(edges, block_bits):
    """A model's counters over ``edges``: one update per edge evaluated."""
    model = BlockSerialPC(block_bits=block_bits)
    updates = blocks_touched = cycles = redirects = 0
    for (source, target), count in edges.items():
        model.pc = source
        if target == source + 4:
            touched = model.increment()
            cycles += count * touched
        else:
            touched = model.redirect(target)
            cycles += count
            redirects += count
        updates += count
        blocks_touched += count * touched
    return {
        "updates": updates,
        "blocks_touched": blocks_touched,
        "cycles": cycles,
        "redirects": redirects,
    }


def replay_pc_model(block_bits, payloads):
    """Thread per-trace PC payloads through one block-serial PC model.

    ``payloads`` (from :meth:`TraceSummary.pc_payload`) come in trace
    order; the result is the :class:`~repro.core.pc.BlockSerialPC` state
    that one model driven record by record through those traces in turn
    reaches, starting from PC 0.
    """
    model = BlockSerialPC(block_bits=block_bits)
    key = str(block_bits)
    for data in payloads:
        for _ in range(data["prefix_increments"]):
            model.increment()
        target = data["first_target"]
        if target is not None:
            model.redirect(target)
            post = data["post"][key]
            model.updates += post["updates"]
            model.blocks_touched += post["blocks_touched"]
            model.cycles += post["cycles"]
            model.redirects += post["redirects"]
            model.pc = data["final_pc"]
    return model


def summarize(records, label=None):
    """One pass over ``records`` (any iterable) into a :class:`TraceSummary`.

    Runs under a ``columns.summary`` compute span tagged ``trace=label``
    that notes the record count when the pass ends.
    """
    with tracing.span("columns.summary", "compute", trace=label) as handle:
        summary = _summarize(records)
        handle.note(records=summary.records)
    return summary


def _summarize(records):
    operands = {}
    count_operand = operands.get
    execs = {}
    count_exec = execs.get
    instrs = {}
    edges = {}
    count_edge = edges.get
    prefix_increments = 0
    previous = first_target = None
    for record in records:
        for value in record.read_values:
            operands[value] = count_operand(value, 0) + 1
        value = record.write_value
        if value is not None:
            value = ~value
            operands[value] = count_operand(value, 0) + 1
        pc = record.pc
        executed = count_exec(pc)
        if executed is None:
            execs[pc] = 1
            instrs[pc] = record.instr
        else:
            execs[pc] = executed + 1
        if first_target is not None:
            edge = (previous, pc)
            edges[edge] = count_edge(edge, 0) + 1
        elif previous is None or pc == previous + 4:
            prefix_increments += 1
        else:
            first_target = pc
        previous = pc
    return TraceSummary(
        sum(execs.values()), operands, execs, instrs, edges,
        prefix_increments, first_target, previous,
    )
