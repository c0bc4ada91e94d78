//! The merged stream's way out of the executor.
//!
//! [`OutputHook`] is the one [`RunHooks`] that production output passes
//! through: it counts what the merge emitted, publishes it to an optional
//! [`EpochBuffer`] (the subscriber fan-out) and writes it as wire `Data`
//! frames to an optional file. Subscribers and the file see the same
//! frames: the buffer encodes with the same global sequence the file
//! carries.
//!
//! It reports `enabled` unconditionally, so a run with it takes the
//! executor's hooks-enabled path whichever outputs are on, and a test that
//! pairs it (or a plain `Vec` collector) with a fault injector walks the
//! same path as the deployed server. It runs on the executor thread, which
//! is what makes a checkpoint-time [`EpochBuffer::image`] exactly
//! consistent with the merge image captured at the same cut — and the
//! buffer's flushes write the subscriber sockets on that thread too.
//!
//! A failing file does not perturb the run or the fan-out: the hook keeps
//! the first I/O error, stops writing, and [`OutputHook::finish`] returns
//! it.

use crate::buffer::EpochBuffer;
use lmerge_engine::RunHooks;
use lmerge_net::wire::{self, Frame};
use lmerge_temporal::{Element, VTime, Value};
use std::io::{self, Write};
use std::sync::Arc;

/// Counts the merged output and sends it to a broadcast buffer and/or a
/// file of wire `Data` frames.
#[derive(Default)]
pub struct OutputHook {
    buf: Option<Arc<EpochBuffer>>,
    file: Option<Box<dyn Write + Send>>,
    seq: u64,
    emitted: u64,
    error: Option<io::Error>,
}

impl OutputHook {
    /// A hook that only counts: no buffer, no file.
    pub fn new() -> OutputHook {
        OutputHook::default()
    }

    /// Also publish every emission into `buf`.
    #[must_use]
    pub fn broadcast(mut self, buf: Arc<EpochBuffer>) -> OutputHook {
        self.buf = Some(buf);
        self
    }

    /// Also write every emission to `w` as a wire `Data` frame.
    #[must_use]
    pub fn write_to(mut self, w: Box<dyn Write + Send>) -> OutputHook {
        self.file = Some(w);
        self
    }

    /// Elements emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// End the output: flush and close the file, then seal and finish the
    /// buffer so subscriber sessions drain and close. Returns the first
    /// I/O error the file hit, mid-run or at this flush.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(mut w) = self.file.take() {
            if let Err(e) = w.flush() {
                self.error.get_or_insert(e);
            }
        }
        if let Some(buf) = &self.buf {
            buf.finish();
        }
        self.error.take().map_or(Ok(()), Err)
    }
}

impl RunHooks<Value> for OutputHook {
    fn enabled(&self) -> bool {
        true
    }

    fn on_consumed(
        &mut self,
        _input: u32,
        at: VTime,
        _delivered: &[Element<Value>],
        emitted: &[Element<Value>],
    ) {
        self.emitted += emitted.len() as u64;
        if let Some(buf) = &self.buf {
            buf.publish(at, emitted);
        }
        if let Some(w) = &mut self.file {
            for e in emitted {
                let frame = Frame::Data {
                    seq: self.seq,
                    at,
                    element: e.clone(),
                };
                self.seq += 1;
                if let Err(err) = wire::write_frame(w, &frame) {
                    self.error = Some(err);
                    self.file = None;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{ChunkAt, Seal, SubPolicy};
    use lmerge_temporal::Time;
    use std::io::BufWriter;
    use std::sync::Mutex;

    /// A writer over a shared byte vector that fails once it would hold
    /// more than `limit` bytes.
    #[derive(Clone)]
    struct Capped {
        bytes: Arc<Mutex<Vec<u8>>>,
        limit: usize,
    }

    impl Capped {
        fn new(limit: usize) -> Capped {
            Capped {
                bytes: Arc::default(),
                limit,
            }
        }

        fn frames(&self) -> Vec<Frame> {
            wire::decode_all(&self.bytes.lock().unwrap()).expect("whole frames")
        }
    }

    impl Write for Capped {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut bytes = self.bytes.lock().unwrap();
            if bytes.len() + buf.len() > self.limit {
                return Err(io::Error::other("device full"));
            }
            bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn inserts(n: i32) -> Vec<Element<Value>> {
        (0..n)
            .map(|k| Element::insert(Value::synthetic(k, 64), k as i64, k as i64 + 9))
            .collect()
    }

    #[test]
    fn writes_round_trippable_frames_and_counts_them() {
        let file = Capped::new(usize::MAX);
        let mut h = OutputHook::new().write_to(Box::new(file.clone()));
        let a = Element::insert(Value::synthetic(7, 64), 1, 9);
        let s = Element::<Value>::stable(Time(4));
        h.on_consumed(0, VTime(100), &[], &[a.clone(), s.clone()]);
        h.on_consumed(1, VTime(120), &[], std::slice::from_ref(&a));
        assert_eq!(h.emitted(), 3);
        assert!(h.finish().is_ok());
        let data = |seq, at, element| Frame::Data {
            seq,
            at: VTime(at),
            element,
        };
        assert_eq!(
            file.frames(),
            [data(0, 100, a.clone()), data(1, 100, s), data(2, 120, a)]
        );
    }

    #[test]
    fn publishes_to_the_buffer_and_finish_seals_it() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let mut h = OutputHook::new().broadcast(Arc::clone(&buf));
        assert!(RunHooks::<Value>::enabled(&h));
        let emitted = vec![
            Element::insert(Value::bare(1), 0, 5),
            Element::<Value>::stable(Time(3)),
        ];
        h.on_consumed(0, VTime(1), &[], &emitted);
        h.on_consumed(0, VTime(2), &[], &[Element::insert(Value::bare(2), 4, 9)]);
        assert!(h.finish().is_ok());
        let (next_seq, stable, sealed, _) = buf.stats();
        assert_eq!((next_seq, stable, sealed), (3, Time(3), 2));
        // The unsealed remainder was flushed and sealed by `finish`.
        assert!(matches!(
            buf.chunk_at(2),
            ChunkAt::Ready {
                seal: Some(Seal { index: 1, .. }),
                ..
            }
        ));
        assert!(matches!(buf.chunk_at(3), ChunkAt::Finished));
    }

    /// A file that fails — mid-run, or only at the final flush of a
    /// buffered writer — is reported by `finish`, and the fan-out still
    /// carries every element.
    #[test]
    fn a_failing_file_is_reported_and_the_broadcast_continues() {
        let out = inserts(40);
        let frame_len = wire::encode(&Frame::Data {
            seq: 0,
            at: VTime(0),
            element: out[0].clone(),
        })
        .len();
        for buffered in [false, true] {
            let file = Capped::new(frame_len * 10 + frame_len / 2);
            let w: Box<dyn Write + Send> = if buffered {
                Box::new(BufWriter::with_capacity(1 << 16, file.clone()))
            } else {
                Box::new(file.clone())
            };
            let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
            let mut h = OutputHook::new().broadcast(Arc::clone(&buf)).write_to(w);
            for chunk in out.chunks(7) {
                h.on_consumed(0, VTime(1), &[], chunk);
            }
            assert_eq!(h.emitted(), 40);
            let err = h.finish().expect_err("the full device is reported");
            assert_eq!(err.to_string(), "device full", "buffered: {buffered}");
            // What reached the file is whole frames: ten unbuffered, none
            // when the only write was the final flush.
            let written = file.frames().len();
            assert_eq!(written, if buffered { 0 } else { 10 });
            assert_eq!(buf.stats().0, 40, "broadcast got every element");
        }
    }
}
