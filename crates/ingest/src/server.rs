//! The socket layer: nonblocking accept + per-worker connection polling.
//!
//! All protocol logic lives in [`Conn`]; this module only shovels bytes.
//! [`serve`] runs one accept+poll loop per worker over scoped threads
//! (workers default to [`tsad_parallel::current_threads`], so
//! `TSAD_THREADS` governs the server like every other subsystem). Every
//! socket is nonblocking: a pass never parks on one connection, so a
//! hostile client dribbling a request byte-per-second cannot stall the
//! accept loop or its neighbours — it just burns its own idle deadline
//! and gets closed.
//!
//! A worker blocks only after a pass that moved nothing, in one
//! `ppoll(2)` over its listener, its connections and the shutdown wake,
//! timed to the nearest deadline. It therefore wakes the moment a socket
//! is ready, and otherwise exactly when a connection deadline or the
//! durability hook's next [`BatchLog::tick`] falls due. Non-Linux
//! targets sleep 50 µs instead.
//!
//! Two deadlines apply per connection: a short one while a *partial*
//! request is buffered (the slowloris guard) and a longer keep-alive one
//! while the connection is idle between requests.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(target_os = "linux")]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsad_stream::DetectorFactory;

use crate::conn::{Conn, ConnConfig};
use crate::engine::{BatchLog, Engine};
use crate::{INGEST_CONNS, INGEST_TIMEOUTS};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads; 0 means [`tsad_parallel::current_threads`].
    pub workers: usize,
    /// Per-connection parser bounds.
    pub conn: ConnConfig,
    /// Open connections each worker will hold; accepts pause (in the OS
    /// backlog) while a worker is full.
    pub max_conns_per_worker: usize,
    /// Deadline for a connection holding a partially received request
    /// (the slowloris guard).
    pub idle_timeout: Duration,
    /// Deadline for an idle keep-alive connection with no pending bytes.
    pub keep_alive_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            conn: ConnConfig::default(),
            max_conns_per_worker: 128,
            idle_timeout: Duration::from_secs(2),
            keep_alive_timeout: Duration::from_secs(30),
        }
    }
}

/// One worker's view of a connection.
struct Slot {
    stream: TcpStream,
    conn: Conn,
    /// Last time this connection made progress (bytes moved or a request
    /// completed); deadlines measure from here.
    last_progress: Instant,
}

impl Slot {
    fn close(self) {
        INGEST_CONNS.sub(1);
        // Drop closes the socket; best-effort FIN first.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// When the connection is closed unless it makes progress first:
    /// short while a request is partially buffered, long while idle
    /// between requests.
    fn deadline(&self, cfg: &ServerConfig) -> Option<Instant> {
        let timeout = if self.conn.has_partial() {
            cfg.idle_timeout
        } else {
            cfg.keep_alive_timeout
        };
        self.last_progress.checked_add(timeout)
    }
}

/// How long a worker leaves its listener out of the idle wait after an
/// accept failed (EMFILE and the like): the pending connection keeps the
/// listener ready, so waiting on it would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

/// Runs the server until `shutdown` is triggered. Blocks the calling
/// thread; use [`start`] for a handle-based background server.
pub fn serve<F, L>(
    engine: &Engine<F, L>,
    listener: TcpListener,
    cfg: &ServerConfig,
    shutdown: &Shutdown,
) -> std::io::Result<()>
where
    F: DetectorFactory + Send,
    F::Detector: Sync,
    L: BatchLog,
{
    listener.set_nonblocking(true)?;
    let workers = if cfg.workers == 0 {
        tsad_parallel::current_threads()
    } else {
        cfg.workers
    }
    .max(1);

    tsad_parallel::scope(|s| {
        for _ in 0..workers {
            let listener = listener.try_clone().expect("clone listener");
            s.spawn(move || worker_loop(engine, &listener, cfg, shutdown));
        }
    });
    Ok(())
}

/// One worker: accept into free capacity, poll every connection, and
/// wait for readiness after a pass that moved nothing.
fn worker_loop<F, L>(
    engine: &Engine<F, L>,
    listener: &TcpListener,
    cfg: &ServerConfig,
    shutdown: &Shutdown,
) where
    F: DetectorFactory,
    F::Detector: Sync,
    L: BatchLog,
{
    let mut slots: Vec<Slot> = Vec::new();
    let mut read_buf = vec![0u8; 16 * 1024];
    let mut idle = IdleWait::default();
    while !shutdown.is_triggered() {
        let mut worked = false;
        let mut accept_failed = false;

        // Accept while capacity remains; the listener is shared, so each
        // pending connection lands on whichever worker grabs it first.
        while slots.len() < cfg.max_conns_per_worker {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    INGEST_CONNS.add(1);
                    slots.push(Slot {
                        stream,
                        conn: Conn::new(cfg.conn),
                        last_progress: Instant::now(),
                    });
                    worked = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // transient (EMFILE etc.); retry after ACCEPT_RETRY
                    accept_failed = true;
                    break;
                }
            }
        }

        let now = Instant::now();
        let mut i = 0;
        while i < slots.len() {
            let slot = &mut slots[i];
            let mut drop_conn = false;

            // Read what the peer has; feed it through the state machine.
            if !slot.conn.wants_close() {
                match slot.stream.read(&mut read_buf) {
                    Ok(0) => drop_conn = true, // peer closed; flush below
                    Ok(n) => {
                        slot.conn.feed(&read_buf[..n], engine);
                        slot.last_progress = now;
                        worked = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => drop_conn = true,
                }
            }

            // Flush pending output.
            while !slot.conn.output().is_empty() {
                match slot.stream.write(slot.conn.output()) {
                    Ok(0) => {
                        drop_conn = true;
                        break;
                    }
                    Ok(n) => {
                        slot.conn.consume_output(n);
                        slot.last_progress = now;
                        worked = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }

            if slot.conn.wants_close() && slot.conn.output().is_empty() {
                drop_conn = true;
            }
            if slot.deadline(cfg).is_some_and(|d| now >= d) {
                if slot.conn.has_partial() {
                    INGEST_TIMEOUTS.inc();
                }
                drop_conn = true;
            }

            if drop_conn {
                slots.swap_remove(i).close();
            } else {
                i += 1;
            }
        }

        if !worked {
            // Idle pass: run the durability hook's due work (a group
            // commit's age bound), then sleep until a socket is ready or
            // the nearest deadline. A failed tick poisons the WAL, which
            // `/healthz` and the next submit report.
            let retry = accept_failed.then(|| Instant::now() + ACCEPT_RETRY);
            let deadline = slots
                .iter()
                .filter_map(|slot| slot.deadline(cfg))
                .chain(engine.log().tick())
                .chain(retry)
                .min();
            let listen = slots.len() < cfg.max_conns_per_worker && !accept_failed;
            idle.wait(listen.then_some(listener), &slots, shutdown, deadline);
        }
    }
    for slot in slots.drain(..) {
        slot.close();
    }
}

/// A worker's idle wait. The `pollfd` array is reused across waits, so
/// a warm wait allocates nothing.
#[derive(Default)]
struct IdleWait {
    #[cfg(target_os = "linux")]
    fds: Vec<sys::PollFd>,
}

impl IdleWait {
    /// Blocks until the shutdown wake, `listener` (when given) or a
    /// connection is ready — readable unless it is closing, writable
    /// while it has output — or until `deadline`.
    #[cfg(target_os = "linux")]
    fn wait(
        &mut self,
        listener: Option<&TcpListener>,
        slots: &[Slot],
        shutdown: &Shutdown,
        deadline: Option<Instant>,
    ) {
        use std::os::fd::AsRawFd;

        self.fds.clear();
        self.fds
            .push(sys::PollFd::new(shutdown.wake.0.as_raw_fd(), sys::POLLIN));
        if let Some(listener) = listener {
            self.fds
                .push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
        }
        for slot in slots {
            let mut events = 0;
            if !slot.conn.wants_close() {
                events |= sys::POLLIN;
            }
            if !slot.conn.output().is_empty() {
                events |= sys::POLLOUT;
            }
            self.fds
                .push(sys::PollFd::new(slot.stream.as_raw_fd(), events));
        }
        sys::wait(
            &mut self.fds,
            deadline.map(|d| d.saturating_duration_since(Instant::now())),
        );
    }

    /// Sleeps a fixed 50 µs: no readiness wait on this platform.
    #[cfg(not(target_os = "linux"))]
    fn wait(
        &mut self,
        _listener: Option<&TcpListener>,
        _slots: &[Slot],
        _shutdown: &Shutdown,
        _deadline: Option<Instant>,
    ) {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// `ppoll(2)`, declared directly: std links the C library on Linux.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::fd::RawFd;
    use std::time::Duration;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    /// The kernel's `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: c_short) -> Self {
            Self {
                fd,
                events,
                revents: 0,
            }
        }
    }

    /// The C library's `struct timespec` (`time_t` is a `long` on Linux).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Blocks until an entry of `fds` is ready or `timeout` passes
    /// (`None`: no timeout). An error (EINTR included) just ends the
    /// wait: the next pass looks at every socket anyway.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
        let ts = timeout.map(|t| Timespec {
            tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is a live, writable array of exactly the length
        // passed, `ts_ptr` is null or points at `ts` for the whole call,
        // and a null signal mask leaves the thread's mask unchanged.
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                ts_ptr,
                std::ptr::null(),
            )
        };
    }
}

/// Stops a [`serve`] call: sets a flag and wakes every worker blocked in
/// its idle wait, so shutdown never waits out a deadline.
pub struct Shutdown {
    flag: AtomicBool,
    /// A socket pair whose read end every worker polls and nobody
    /// drains: the one byte [`Shutdown::trigger`] writes keeps it ready
    /// for all of them.
    #[cfg(target_os = "linux")]
    wake: (UnixStream, UnixStream),
}

impl Shutdown {
    /// An untriggered handle.
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            flag: AtomicBool::new(false),
            #[cfg(target_os = "linux")]
            wake: UnixStream::pair()?,
        })
    }

    /// Asks every worker to exit, waking those that are blocked.
    pub fn trigger(&self) {
        if !self.flag.swap(true, Ordering::AcqRel) {
            #[cfg(target_os = "linux")]
            let _ = (&self.wake.1).write(&[1]);
        }
    }

    /// Whether [`Shutdown::trigger`] has run.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A running background server (see [`start`]).
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<Shutdown>,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signals shutdown and waits for the workers to exit.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.shutdown.trigger();
        match self.join.take() {
            Some(join) => join.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Binds `addr` and runs [`serve`] on a background thread.
pub fn start<F, L>(
    engine: Arc<Engine<F, L>>,
    cfg: ServerConfig,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle>
where
    F: DetectorFactory + Send + 'static,
    F::Detector: Sync,
    L: BatchLog + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(Shutdown::new()?);
    let shutdown2 = Arc::clone(&shutdown);
    let join = std::thread::Builder::new()
        .name("tsad-ingest-server".into())
        .spawn(move || serve(&engine, listener, &cfg, &shutdown2))?;
    Ok(ServerHandle {
        addr,
        shutdown,
        join: Some(join),
    })
}
