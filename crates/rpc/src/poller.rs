//! Minimal readiness polling over `poll(2)`, plus a cross-thread waker.
//!
//! The event-driven [`crate::server`] needs exactly two primitives that
//! `std` does not expose: "sleep until one of these sockets is ready"
//! and "wake that sleep from another thread". Both are built here from
//! what the platform already links — `poll(2)` via a one-function FFI
//! declaration (libc is always linked by std on unix) and a nonblocking
//! [`UnixStream`] pair whose read end sits in the poll set.
//!
//! [`PollSet`] is deliberately dumb: callers rebuild the fd list every
//! loop iteration (`clear` + `push`) and read results by slot index.
//! That is O(n) per wakeup, which at the thousands-of-connections scale
//! this crate targets costs microseconds — far below the syscall itself —
//! and keeps registration state impossible to get out of sync.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

// Event bits from <poll.h>; identical across linux and the BSDs.
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: std::os::raw::c_int) -> i32;
}

/// A rebuilt-per-iteration `poll(2)` fd set.
///
/// Usage per loop turn: `clear()`, `push()` every fd of interest
/// (remembering the returned slot), `wait()`, then query
/// `readable(slot)`.
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    pub fn new() -> Self {
        Self { fds: Vec::new() }
    }

    /// Drop all registered fds; capacity is kept so steady-state
    /// rebuilds allocate nothing.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Register `fd` for readiness; returns the slot index used to
    /// query results after [`PollSet::wait`].
    pub fn push(&mut self, fd: RawFd, read: bool, write: bool) -> usize {
        let mut events = 0i16;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait forever). Returns the number of ready
    /// fds (0 on timeout). EINTR is retried transparently.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs deadline doesn't become a busy loop
            // of 0ms polls; saturate far-future deadlines.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        loop {
            // SAFETY: `PollFd` is `#[repr(C)]` with `struct pollfd`'s layout,
            // and the pointer and length come from one live `Vec` that this
            // `&mut self` borrow keeps unaliased for the call; poll(2) writes
            // only the `revents` of those `len` entries.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as _, ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Did `slot` become readable (or hung up / errored — callers must
    /// attempt the read to observe EOF or the error)?
    pub fn readable(&self, slot: usize) -> bool {
        self.fds[slot].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

impl Default for PollSet {
    fn default() -> Self {
        Self::new()
    }
}

/// Cross-thread wakeup for a [`PollSet`] sleeper.
///
/// The event loop keeps `reader` in its poll set; any thread holding a
/// clone of [`Waker`] can interrupt the sleep. Multiple wakes coalesce
/// into the pipe buffer and are drained in one gulp.
pub struct WakePipe {
    reader: UnixStream,
}

/// The sending half of a [`WakePipe`]; cheap to clone and hand to
/// completion callbacks.
#[derive(Clone)]
pub struct Waker {
    writer: Arc<UnixStream>,
}

impl WakePipe {
    pub fn new() -> io::Result<(Self, Waker)> {
        let (reader, writer) = UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok((
            Self { reader },
            Waker {
                writer: Arc::new(writer),
            },
        ))
    }

    pub fn fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// Consume all pending wake bytes so the next poll sleeps again.
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.reader.read(&mut buf), Ok(n) if n > 0) {}
    }
}

impl Waker {
    /// Interrupt the poll sleep. A full pipe means a wake is already
    /// pending, which is all we need — WouldBlock is success here.
    pub fn wake(&self) {
        let _ = (&*self.writer).write(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn socket_becomes_readable_after_peer_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let mut ps = PollSet::new();
        let slot = ps.push(rx.as_raw_fd(), true, false);
        // Nothing written yet: a short wait times out.
        assert_eq!(ps.wait(Some(Duration::from_millis(10))).unwrap(), 0);
        assert!(!ps.readable(slot));

        tx.write_all(b"ping").unwrap();
        ps.clear();
        let slot = ps.push(rx.as_raw_fd(), true, false);
        assert_eq!(ps.wait(Some(Duration::from_secs(2))).unwrap(), 1);
        assert!(ps.readable(slot));
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let (mut pipe, waker) = WakePipe::new().unwrap();
        // Keep `waker` alive here: dropping the last clone closes the
        // write end, which reads as a permanent hangup.
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake();
            remote.wake(); // coalesces
        });
        let mut ps = PollSet::new();
        let slot = ps.push(pipe.fd(), true, false);
        let start = Instant::now();
        // Infinite timeout: only the waker can end this wait.
        assert!(ps.wait(None).unwrap() >= 1);
        assert!(ps.readable(slot));
        assert!(start.elapsed() < Duration::from_secs(5));
        // Both wakes are in the pipe once the thread is done; draining
        // clears them so the next short wait times out, not spins.
        t.join().unwrap();
        pipe.drain();
        ps.clear();
        ps.push(pipe.fd(), true, false);
        assert_eq!(ps.wait(Some(Duration::from_millis(10))).unwrap(), 0);
    }

    #[test]
    fn timeout_expires_without_events() {
        let mut ps = PollSet::new();
        let start = Instant::now();
        assert_eq!(ps.wait(Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
