//! Binary encodings for merge/executor state images.
//!
//! Layouts are little-endian and positional (no field tags): the envelope
//! version in [`crate::codec`] is the compatibility gate. Because
//! [`MergeStateImage`] is canonical — entries sorted by `(Vs, payload)`,
//! multisets by `(input, Ve)` — equal logical state encodes to identical
//! bytes, and the round-trip property tests can compare encodings
//! directly.

use crate::codec::{put_count, Cursor, DurableError};
use crate::payload::DurablePayload;
use lmerge_core::{CountersImage, InputStateImage, MergeStateImage, StateEntry, VariantKind};
use lmerge_engine::{EgressImage, ExecutorImage, FrameRun, RunImage};
use lmerge_temporal::{Time, VTime};
use std::sync::Arc;

fn put_time(buf: &mut Vec<u8>, t: Time) {
    buf.extend_from_slice(&t.0.to_le_bytes());
}

fn get_time(cur: &mut Cursor<'_>) -> Result<Time, DurableError> {
    Ok(Time(cur.i64()?))
}

fn put_u64s(buf: &mut Vec<u8>, xs: &[u64]) {
    put_count(buf, xs.len());
    for x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn get_u64s(cur: &mut Cursor<'_>) -> Result<Vec<u64>, DurableError> {
    let n = cur.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(cur.u64()?);
    }
    Ok(out)
}

fn put_multiset(buf: &mut Vec<u8>, ms: &[(Time, u64)]) {
    put_count(buf, ms.len());
    for (ve, n) in ms {
        put_time(buf, *ve);
        buf.extend_from_slice(&n.to_le_bytes());
    }
}

fn get_multiset(cur: &mut Cursor<'_>) -> Result<Vec<(Time, u64)>, DurableError> {
    let n = cur.count(16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let ve = get_time(cur)?;
        out.push((ve, cur.u64()?));
    }
    Ok(out)
}

/// Append one [`StateEntry`].
pub fn put_entry<P: DurablePayload>(buf: &mut Vec<u8>, e: &StateEntry<P>) {
    put_time(buf, e.vs);
    e.payload.encode(buf);
    put_count(buf, e.per_input.len());
    for (input, ms) in &e.per_input {
        buf.extend_from_slice(&input.to_le_bytes());
        put_multiset(buf, ms);
    }
    put_multiset(buf, &e.output);
}

/// Decode one [`StateEntry`].
pub fn get_entry<P: DurablePayload>(cur: &mut Cursor<'_>) -> Result<StateEntry<P>, DurableError> {
    let vs = get_time(cur)?;
    let payload = P::decode(cur)?;
    let n = cur.count(8)?;
    let mut per_input = Vec::with_capacity(n);
    for _ in 0..n {
        let input = cur.u32()?;
        per_input.push((input, get_multiset(cur)?));
    }
    let output = get_multiset(cur)?;
    Ok(StateEntry {
        vs,
        payload,
        per_input,
        output,
    })
}

fn put_entries<P: DurablePayload>(buf: &mut Vec<u8>, es: &[StateEntry<P>]) {
    put_count(buf, es.len());
    for e in es {
        put_entry(buf, e);
    }
}

fn get_entries<P: DurablePayload>(
    cur: &mut Cursor<'_>,
) -> Result<Vec<StateEntry<P>>, DurableError> {
    let n = cur.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_entry(cur)?);
    }
    Ok(out)
}

/// Append a full [`MergeStateImage`].
///
/// Two slots of the layout are reserved, kept so that LMCK v3 files stay
/// byte-identical: the retired sharded wrapper's watermark (always
/// `Time::MIN`) after the stable point, and its nested-image count (always
/// 0) at the end.
pub fn put_merge_image<P: DurablePayload>(buf: &mut Vec<u8>, img: &MergeStateImage<P>) {
    put_merge(buf, img, true);
}

/// Append `img`'s scalars and index *shape* with every entry index
/// written empty — what a delta stores in full. Decodes with
/// [`get_merge_image`] to `img` minus its entries.
pub(crate) fn put_merge_skeleton<P: DurablePayload>(buf: &mut Vec<u8>, img: &MergeStateImage<P>) {
    put_merge(buf, img, false);
}

fn put_merge<P: DurablePayload>(buf: &mut Vec<u8>, img: &MergeStateImage<P>, entries: bool) {
    let index = |buf: &mut Vec<u8>, es: &[StateEntry<P>]| {
        put_entries(buf, if entries { es } else { &[] });
    };
    buf.push(img.kind.tag());
    put_time(buf, img.max_vs);
    put_time(buf, img.max_stable);
    put_time(buf, Time::MIN); // reserved
    match img.leader {
        Some(l) => {
            buf.push(1);
            buf.extend_from_slice(&l.to_le_bytes());
        }
        None => buf.push(0),
    }
    put_u64s(buf, &img.same_vs_count);
    put_u64s(buf, &img.live_entries);
    put_count(buf, img.input_states.len());
    for st in &img.input_states {
        match st {
            InputStateImage::Active => buf.push(0),
            InputStateImage::Joining(t) => {
                buf.push(1);
                put_time(buf, *t);
            }
            InputStateImage::Quarantined => buf.push(2),
            InputStateImage::Left => buf.push(3),
        }
    }
    for x in [img.transitions.0, img.transitions.1, img.transitions.2] {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    put_count(buf, img.counters.len());
    for c in &img.counters {
        buf.extend_from_slice(&c.inserts.to_le_bytes());
        buf.extend_from_slice(&c.adjusts.to_le_bytes());
        buf.extend_from_slice(&c.stables.to_le_bytes());
        put_time(buf, c.last_stable);
    }
    let (a, b, c, d, e, f, g) = img.stats;
    for x in [a, b, c, d, e, f, g] {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    index(buf, &img.entries);
    put_count(buf, img.input_indexes.len());
    for idx in &img.input_indexes {
        index(buf, idx);
    }
    put_count(buf, 0); // reserved
}

/// Decode a full [`MergeStateImage`]. The reserved slots must hold what
/// [`put_merge_image`] writes; anything else is [`DurableError::Corrupt`].
pub fn get_merge_image<P: DurablePayload>(
    cur: &mut Cursor<'_>,
) -> Result<MergeStateImage<P>, DurableError> {
    let tag = cur.u8()?;
    let kind = VariantKind::from_tag(tag).ok_or(DurableError::BadTag(tag))?;
    let mut img = MergeStateImage::empty(kind);
    img.max_vs = get_time(cur)?;
    img.max_stable = get_time(cur)?;
    if get_time(cur)? != Time::MIN {
        return Err(DurableError::Corrupt("reserved watermark slot is set"));
    }
    img.leader = match cur.u8()? {
        0 => None,
        1 => Some(cur.u32()?),
        _ => return Err(DurableError::Corrupt("bad leader flag")),
    };
    img.same_vs_count = get_u64s(cur)?;
    img.live_entries = get_u64s(cur)?;
    let n = cur.count(1)?;
    img.input_states = Vec::with_capacity(n);
    for _ in 0..n {
        img.input_states.push(match cur.u8()? {
            0 => InputStateImage::Active,
            1 => InputStateImage::Joining(get_time(cur)?),
            2 => InputStateImage::Quarantined,
            3 => InputStateImage::Left,
            _ => return Err(DurableError::Corrupt("bad input state tag")),
        });
    }
    img.transitions = (cur.u64()?, cur.u64()?, cur.u64()?);
    let n = cur.count(32)?;
    img.counters = Vec::with_capacity(n);
    for _ in 0..n {
        img.counters.push(CountersImage {
            inserts: cur.u64()?,
            adjusts: cur.u64()?,
            stables: cur.u64()?,
            last_stable: get_time(cur)?,
        });
    }
    img.stats = (
        cur.u64()?,
        cur.u64()?,
        cur.u64()?,
        cur.u64()?,
        cur.u64()?,
        cur.u64()?,
        cur.u64()?,
    );
    img.entries = get_entries(cur)?;
    let n = cur.count(4)?;
    img.input_indexes = Vec::with_capacity(n);
    for _ in 0..n {
        img.input_indexes.push(get_entries(cur)?);
    }
    if cur.u32()? != 0 {
        return Err(DurableError::Corrupt("reserved nested-image count is set"));
    }
    Ok(img)
}

/// Append an [`ExecutorImage`].
pub fn put_exec_image(buf: &mut Vec<u8>, img: &ExecutorImage) {
    buf.extend_from_slice(&img.lmerge_ready.0.to_le_bytes());
    buf.extend_from_slice(&img.delivered.to_le_bytes());
    buf.extend_from_slice(&img.seq.to_le_bytes());
    put_time(buf, img.last_feedback);
    put_count(buf, img.input_stable_hw.len());
    for t in &img.input_stable_hw {
        put_time(buf, *t);
    }
    put_time(buf, img.output_stable_hw);
    put_u64s(buf, &img.pulls);
    put_count(buf, img.staged.len());
    for s in &img.staged {
        match s {
            Some((at, seq)) => {
                buf.push(1);
                buf.extend_from_slice(&at.0.to_le_bytes());
                buf.extend_from_slice(&seq.to_le_bytes());
            }
            None => buf.push(0),
        }
    }
}

/// Decode an [`ExecutorImage`].
pub fn get_exec_image(cur: &mut Cursor<'_>) -> Result<ExecutorImage, DurableError> {
    let lmerge_ready = VTime(cur.u64()?);
    let delivered = cur.u64()?;
    let seq = cur.u64()?;
    let last_feedback = get_time(cur)?;
    let n = cur.count(8)?;
    let mut input_stable_hw = Vec::with_capacity(n);
    for _ in 0..n {
        input_stable_hw.push(get_time(cur)?);
    }
    let output_stable_hw = get_time(cur)?;
    let pulls = get_u64s(cur)?;
    let n = cur.count(1)?;
    let mut staged = Vec::with_capacity(n);
    for _ in 0..n {
        staged.push(match cur.u8()? {
            0 => None,
            1 => Some((VTime(cur.u64()?), cur.u64()?)),
            _ => return Err(DurableError::Corrupt("bad staged flag")),
        });
    }
    Ok(ExecutorImage {
        lmerge_ready,
        delivered,
        seq,
        last_feedback,
        input_stable_hw,
        output_stable_hw,
        pulls,
        staged,
    })
}

/// Append an [`EgressImage`]: subscriber cursors plus the retained
/// wire-encoded output tail (already bytes — stored verbatim).
pub fn put_egress_image(buf: &mut Vec<u8>, img: &EgressImage) {
    put_count(buf, img.cursors.len());
    for (subscriber, acked) in &img.cursors {
        buf.extend_from_slice(&subscriber.to_le_bytes());
        buf.extend_from_slice(&acked.to_le_bytes());
    }
    buf.extend_from_slice(&img.base_seq.to_le_bytes());
    buf.extend_from_slice(&img.next_seq.to_le_bytes());
    put_time(buf, img.stable);
    put_count(buf, img.frames_len());
    for run in img.runs() {
        buf.extend_from_slice(run);
    }
}

/// Decode an [`EgressImage`].
pub fn get_egress_image(cur: &mut Cursor<'_>) -> Result<EgressImage, DurableError> {
    let n = cur.count(16)?;
    let mut cursors = Vec::with_capacity(n);
    for _ in 0..n {
        let subscriber = cur.u64()?;
        cursors.push((subscriber, cur.u64()?));
    }
    let base_seq = cur.u64()?;
    let next_seq = cur.u64()?;
    let stable = get_time(cur)?;
    let n = cur.count(1)?;
    let frames: FrameRun = Arc::new(cur.take(n)?.to_vec());
    Ok(EgressImage {
        cursors,
        base_seq,
        next_seq,
        stable,
        frames: vec![frames],
    })
}

/// Append a [`RunImage`]: merge image, executor image, net cursors, and
/// the egress/broadcast image.
pub fn put_run_image<P: DurablePayload>(buf: &mut Vec<u8>, img: &RunImage<P>) {
    put_merge_image(buf, &img.merge);
    put_exec_image(buf, &img.exec);
    put_count(buf, img.cursors.len());
    for (next_seq, acked) in &img.cursors {
        buf.extend_from_slice(&next_seq.to_le_bytes());
        buf.extend_from_slice(&acked.to_le_bytes());
    }
    put_egress_image(buf, &img.egress);
}

/// Decode a [`RunImage`].
pub fn get_run_image<P: DurablePayload>(cur: &mut Cursor<'_>) -> Result<RunImage<P>, DurableError> {
    let merge = get_merge_image(cur)?;
    let exec = get_exec_image(cur)?;
    let n = cur.count(16)?;
    let mut cursors = Vec::with_capacity(n);
    for _ in 0..n {
        let next_seq = cur.u64()?;
        cursors.push((next_seq, cur.i64()?));
    }
    let egress = get_egress_image(cur)?;
    Ok(RunImage {
        merge,
        exec,
        cursors,
        egress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_entry(k: i32, vs: i64) -> StateEntry<i32> {
        StateEntry {
            vs: Time(vs),
            payload: k,
            per_input: vec![
                (0, vec![(Time(vs + 5), 1)]),
                (2, vec![(Time(vs + 5), 2), (Time(vs + 9), 1)]),
            ],
            output: vec![(Time(vs + 5), 1)],
        }
    }

    pub(crate) fn sample_image() -> MergeStateImage<i32> {
        let mut img = MergeStateImage::empty(VariantKind::R4);
        img.max_vs = Time(41);
        img.max_stable = Time(17);
        img.leader = Some(1);
        img.same_vs_count = vec![3, 0, 9];
        img.live_entries = vec![2, 2, 1];
        img.input_states = vec![
            InputStateImage::Active,
            InputStateImage::Joining(Time(30)),
            InputStateImage::Quarantined,
            InputStateImage::Left,
        ];
        img.transitions = (2, 1, 1);
        img.counters = vec![CountersImage {
            inserts: 10,
            adjusts: 3,
            stables: 4,
            last_stable: Time(17),
        }];
        img.stats = (10, 3, 4, 9, 2, 3, 1);
        img.entries = vec![sample_entry(7, 20), sample_entry(9, 25)];
        img.input_indexes = vec![vec![sample_entry(7, 20)], vec![]];
        img
    }

    /// Encode `img`, apply `edit` to the bytes, wrap them in a snapshot
    /// envelope and decode them back (the whole payload must be consumed).
    fn decode_edited(
        img: &MergeStateImage<i32>,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> Result<MergeStateImage<i32>, DurableError> {
        use crate::codec::{envelope, open_envelope, FileKind};
        let mut body = Vec::new();
        put_merge_image(&mut body, img);
        edit(&mut body);
        let file = envelope(FileKind::Snapshot, &body);
        let (_, payload) = open_envelope(&file)?;
        let mut cur = Cursor::new(payload);
        let back = get_merge_image(&mut cur)?;
        assert!(cur.is_empty());
        Ok(back)
    }

    #[test]
    fn merge_image_round_trips_and_the_retired_sharded_tag_is_refused() {
        let img = sample_image();
        let back = decode_edited(&img, |_| {}).unwrap();
        assert_eq!(back, img);
        // Canonical property: re-encoding the decoded image is byte-identical.
        let (mut buf, mut buf2) = (Vec::new(), Vec::new());
        put_merge_image(&mut buf, &img);
        put_merge_image(&mut buf2, &back);
        assert_eq!(buf, buf2);

        // Tag 6 was the sharded wrapper; its layout is gone.
        let err = decode_edited(&img, |b| b[0] = 6).unwrap_err();
        assert!(matches!(err, DurableError::BadTag(6)), "{err}");
    }

    #[test]
    fn run_image_round_trips() {
        let run = RunImage {
            merge: sample_image(),
            exec: ExecutorImage {
                lmerge_ready: VTime(1234),
                delivered: 77,
                seq: 91,
                last_feedback: Time(15),
                input_stable_hw: vec![Time(17), Time(13)],
                output_stable_hw: Time(13),
                pulls: vec![40, 37],
                staged: vec![Some((VTime(1300), 90)), None],
            },
            cursors: vec![(40, 17), (37, 13)],
            egress: EgressImage {
                cursors: vec![(7, 12), (1001, 9)],
                base_seq: 9,
                next_seq: 14,
                stable: Time(13),
                frames: vec![Arc::new(vec![0xAB; 25]), Arc::new(vec![0xCD; 15])],
            },
        };
        let mut buf = Vec::new();
        put_run_image(&mut buf, &run);
        let mut cur = Cursor::new(&buf);
        let back = get_run_image::<i32>(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back.merge, run.merge);
        assert_eq!(back.exec, run.exec);
        assert_eq!(back.cursors, run.cursors);
        assert_eq!(back.egress, run.egress);
    }

    #[test]
    fn reserved_slots_must_hold_what_the_encoder_writes() {
        let mut img = sample_image();
        img.kind = VariantKind::R3;
        // The watermark slot follows the tag, `max_vs` and `max_stable`.
        let err = decode_edited(&img, |b| b[17..25].copy_from_slice(&11i64.to_le_bytes()));
        assert!(
            matches!(err, Err(DurableError::Corrupt(_))),
            "watermark: {err:?}"
        );
        // A nested-image count of 1, followed by a well-formed nested image.
        let err = decode_edited(&img, |b| {
            let n = b.len();
            b[n - 4..].copy_from_slice(&1u32.to_le_bytes());
            put_merge_image(b, &MergeStateImage::<i32>::empty(VariantKind::R3));
        });
        assert!(
            matches!(err, Err(DurableError::Corrupt(_))),
            "nested count: {err:?}"
        );
    }
}
