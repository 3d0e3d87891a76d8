//! Minimal nonblocking event-loop primitives over raw Linux
//! `epoll(7)`/`eventfd(2)` syscalls.
//!
//! The serving data plane needs exactly four things from the OS: an
//! interest list ([`Poller`]), edge-triggered readiness ([`Event`]), a
//! cross-thread wakeup ([`WakeFd`]) and nonblocking sockets (plain
//! `std::net` with `set_nonblocking`). None of that requires an external
//! crate — the bindings below are declared directly against libc's
//! syscall wrappers, the same no-new-deps policy as the repo's `vendor/`
//! stand-ins. Everything is Linux-only, like the rest of the serving
//! tier's bench tooling.

use std::io;
use std::os::raw::{c_int, c_void};
use std::time::Duration;

// Values from the Linux UAPI headers (stable ABI, x86_64 and aarch64
// share them for epoll/eventfd).
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// `struct epoll_event` — packed on x86_64 (the kernel ABI), which is
/// also correct (if redundant) on other 64-bit targets.
#[repr(C, packed)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Which readiness kinds a registration subscribes to. All
/// registrations are edge-triggered (`EPOLLET`): the loop must drain
/// until `WouldBlock` on every notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Subscribe to read readiness (`EPOLLIN` + `EPOLLRDHUP`).
    pub readable: bool,
    /// Subscribe to write readiness (`EPOLLOUT`).
    pub writable: bool,
}

impl Interest {
    /// Read readiness only — the resting state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read and write readiness — while a response queue is backed up.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut e = EPOLLET | EPOLLRDHUP;
        if self.readable {
            e |= EPOLLIN;
        }
        if self.writable {
            e |= EPOLLOUT;
        }
        e
    }
}

/// One readiness notification, translated out of the raw event mask.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with ([`Poller::add`]).
    pub token: u64,
    /// Readable (`EPOLLIN`), or peer half/full close (`EPOLLRDHUP` /
    /// `EPOLLHUP`) — either way the loop should read until it sees EOF
    /// or `WouldBlock`.
    pub readable: bool,
    /// Writable (`EPOLLOUT`) — the loop should flush its queued
    /// responses.
    pub writable: bool,
    /// Error or hangup (`EPOLLERR` / `EPOLLHUP`); the next read/write
    /// surfaces the real `io::Error`/EOF, so this is advisory.
    pub hangup: bool,
}

/// The most readiness events one [`Poller::wait`] delivers.
pub const MAX_EVENTS: usize = 256;

/// An `epoll` interest list plus its reusable event buffer.
#[derive(Debug)]
pub struct Poller {
    epfd: c_int,
}

impl Poller {
    /// Creates a new close-on-exec epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the
        // call; DEL ignores the pointer but passing it is still valid.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` edge-triggered under `token`.
    pub fn add(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Re-arms `fd` with a new interest set (used to subscribe to
    /// `EPOLLOUT` only while a write queue is non-empty).
    pub fn modify(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Removes `fd` from the interest list. Must be called before the
    /// fd is closed if clones of it could keep the open file alive.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely), appending the readiness
    /// events to `events` (which is cleared first) and returning how
    /// many were delivered — `0` means the timeout fired, and never more
    /// than [`MAX_EVENTS`], so a buffer created with that capacity never
    /// grows. Sub-millisecond timeouts round **up** to 1ms so a short
    /// timeout never degenerates into a busy spin. EINTR retries
    /// transparently.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let ms: c_int = match timeout {
            None => -1,
            Some(t) => {
                if t.is_zero() {
                    0
                } else {
                    let ms = t.as_millis().max(1);
                    ms.min(c_int::MAX as u128) as c_int
                }
            }
        };
        let mut raw: [EpollEvent; MAX_EVENTS] = unsafe { std::mem::zeroed() };
        let n = loop {
            // SAFETY: `raw` provides MAX_EVENTS valid epoll_event slots.
            match cvt(unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as c_int, ms) }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in raw.iter().take(n) {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned and not used after drop.
        unsafe { close(self.epfd) };
    }
}

/// A nonblocking `eventfd` used to kick an event loop from another
/// thread (a connection handed to it by the accepting loop, shutdown).
/// Cloneable by raw fd: the owning loop registers it read-side; any
/// thread may [`WakeFd::wake`].
#[derive(Debug)]
pub struct WakeFd {
    fd: c_int,
}

impl WakeFd {
    /// Creates the eventfd (nonblocking, close-on-exec, counter 0).
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(WakeFd { fd })
    }

    /// The raw fd, for registration with a [`Poller`].
    pub fn raw_fd(&self) -> i32 {
        self.fd
    }

    /// Increments the counter, making the fd readable. Safe from any
    /// thread; an `EAGAIN` (counter saturated) still leaves the fd
    /// readable, so it is ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a valid u64.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Drains the counter after a readiness event so the next
    /// [`WakeFd::wake`] edge-triggers again.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reads 8 bytes into a valid u64; loops until the
        // nonblocking read reports an empty counter.
        while unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) } == 8 {}
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned and not used after drop.
        unsafe { close(self.fd) };
    }
}

// SAFETY: eventfd writes are atomic counter increments; the fd is valid
// for the lifetime of the struct.
unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wakefd_roundtrip() {
        let poller = Poller::new().unwrap();
        let wake = WakeFd::new().unwrap();
        poller.add(wake.raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing pending: times out empty and reports zero ready.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
        wake.wake();
        wake.wake();
        assert_eq!(poller.wait(&mut events, None).unwrap(), 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        wake.drain();
        // Edge-triggered: drained counter, no further event.
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty());
        // A fresh wake edge-triggers again.
        wake.wake();
        poller.wait(&mut events, None).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn socket_readiness_and_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        use std::os::fd::AsRawFd;
        poller.add(conn.as_raw_fd(), 42, Interest::READ).unwrap();

        peer.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        let mut buf = [0u8; 16];
        let mut r = &conn;
        assert_eq!(r.read(&mut buf).unwrap(), 4);

        drop(peer);
        poller.wait(&mut events, None).unwrap();
        assert!(events[0].readable, "peer close must surface as readable");
        assert_eq!(r.read(&mut buf).unwrap(), 0, "EOF after hangup");
        poller.delete(conn.as_raw_fd()).unwrap();
    }
}
