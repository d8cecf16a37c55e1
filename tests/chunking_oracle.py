"""Byte-stream chunking oracle.

Independent of the closed-form plan arithmetic: the artifact is fed one byte
at a time through ATT chunking, header insertion, and link-layer framing,
and frames are filled as the bytes arrive. No division or ceiling shortcuts.
"""


def byte_stream_counts(artifact_size: int, att_mtu: int, ll_pdu: int) -> tuple[int, int]:
    """(att_pdu_count, ll_data_frame_count) for one artifact."""
    for final in stream_counts(artifact_size, att_mtu, ll_pdu):
        pass
    return final


def byte_stream_frames(artifact_size: int, att_mtu: int, ll_pdu: int) -> list[int]:
    """The payload bytes of each data frame of one artifact, in order."""
    for _, frames in stream(artifact_size, att_mtu, ll_pdu):
        pass
    return frames


def stream_counts(max_size: int, att_mtu: int, ll_pdu: int):
    """Yield (att_pdu_count, ll_data_frame_count) after each value byte."""
    for att_pdus, frames in stream(max_size, att_mtu, ll_pdu):
        yield att_pdus, len(frames)


def stream(max_size: int, att_mtu: int, ll_pdu: int):
    """Yield (att_pdu_count, payload bytes of each data frame) after each value byte.

    The k-th yield is the framing of an artifact of exactly k bytes: greedy
    chunking fills every ATT PDU before opening the next, so a size-k
    artifact is framed identically to the first k bytes of a larger one. The
    frame list is one list, grown in place; copy it to keep a yielded state.
    """
    chunk_cap = att_mtu - 3
    att_pdus = 0
    frames: list[int] = []
    chunk_fill = 0

    def push_ll_byte(fresh_frame: bool = False):
        if fresh_frame or frames[-1] == ll_pdu:
            frames.append(0)
        frames[-1] += 1

    for _ in range(max_size):
        if chunk_fill == 0:
            # New ATT PDU: its 3 B ATT + 4 B L2CAP headers hit the link
            # layer first, in a fresh frame.
            att_pdus += 1
            push_ll_byte(fresh_frame=True)
            for _ in range(6):
                push_ll_byte()
        push_ll_byte()
        chunk_fill += 1
        if chunk_fill == chunk_cap:
            chunk_fill = 0
        yield att_pdus, frames
