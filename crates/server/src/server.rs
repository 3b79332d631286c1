//! The TCP front-end: an accept loop feeding a scoped-thread worker
//! pool, with a clean in-band shutdown.
//!
//! No async runtime: [`Server::run`] accepts on a plain
//! [`TcpListener`] and hands each connection to one of `workers`
//! scoped threads over an `mpsc` channel (the receiver shared behind a
//! mutex). Each worker speaks the [`crate::protocol`] frame
//! loop until the peer disconnects. `SHUTDOWN` answers `BYE`, raises
//! the stop flag, closes the read side of every live connection (so a
//! worker blocked reading an idle client sees end-of-stream), and nudges
//! the accept loop awake with a throwaway self-connection; dropping the
//! channel sender then drains the pool, and `run` returns once every
//! in-flight request has been answered.

use crate::protocol::{self, Request, Response};
use crate::service::ResolveService;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

/// A bound-but-not-yet-running resolution server. See the
/// [module docs](self).
pub struct Server<'d> {
    service: ResolveService<'d>,
    listener: TcpListener,
    workers: usize,
    stop: AtomicBool,
    /// One slot per worker: a handle on the connection it is serving, so
    /// shutdown can close that connection's read side. A slot is cleared
    /// when its connection ends, so no handle outlives its connection.
    live: Mutex<Vec<Option<TcpStream>>>,
}

impl<'d> Server<'d> {
    /// Binds `addr` (use port 0 for an ephemeral port) with a pool of
    /// `workers` connection threads (clamped to ≥ 1).
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: ResolveService<'d>,
        workers: usize,
    ) -> io::Result<Self> {
        let workers = workers.max(1);
        Ok(Self {
            service,
            listener: TcpListener::bind(addr)?,
            workers,
            stop: AtomicBool::new(false),
            live: Mutex::new((0..workers).map(|_| None).collect()),
        })
    }

    /// The bound address (the ephemeral port after `bind(":0")`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service, e.g. to preload the corpus before `run`.
    pub fn service(&self) -> &ResolveService<'d> {
        &self.service
    }

    /// Stops the server: raises the flag, closes the read side of every
    /// live connection (an idle client no longer holds its worker), then
    /// nudges `accept` with a throwaway connection so it observes the
    /// flag without needing a timeout.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for stream in self.live_slots().iter().flatten() {
            // Already closed by the peer is fine too.
            drop(stream.shutdown(Shutdown::Read));
        }
        if let Ok(addr) = self.listener.local_addr() {
            drop(TcpStream::connect(addr));
        }
    }

    /// Serves until [`Server::shutdown`] is called (usually via the
    /// `SHUTDOWN` request). Returns once the worker pool has drained.
    pub fn run(&self) -> io::Result<()> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for worker in 0..self.workers {
                let rx = &rx;
                scope.spawn(move || loop {
                    // Hold the queue lock only for the dequeue itself.
                    let next = {
                        let queue = rx.lock().expect("connection queue mutex poisoned");
                        queue.recv()
                    };
                    match next {
                        Ok(stream) => self.serve(worker, stream),
                        // Sender dropped: the accept loop is done.
                        Err(_) => break,
                    }
                });
            }
            for incoming in self.listener.incoming() {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                match incoming {
                    Ok(stream) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    // Transient accept failure; keep serving.
                    Err(_) => continue,
                }
            }
            drop(tx);
        });
        Ok(())
    }

    fn live_slots(&self) -> std::sync::MutexGuard<'_, Vec<Option<TcpStream>>> {
        self.live.lock().expect("live connection mutex poisoned")
    }

    /// Serves one connection on `worker`, registered in the worker's live
    /// slot for its lifetime. The stop flag is checked under the slot
    /// lock, which [`Server::shutdown`] takes after raising the flag: a
    /// connection is either registered in time to be closed, or dropped
    /// unserved.
    fn serve(&self, worker: usize, stream: TcpStream) {
        {
            let mut live = self.live_slots();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            match stream.try_clone() {
                Ok(handle) => live[worker] = Some(handle),
                // Without a handle shutdown could not close it.
                Err(_) => return,
            }
        }
        self.handle(stream);
        self.live_slots()[worker] = None;
    }

    /// One connection's frame loop. Service-level rejections (bad
    /// entity id, invalid ingest batch) answer `ERR` and keep the
    /// connection; protocol-level decode errors answer `ERR` and drop
    /// it (framing is no longer trustworthy).
    fn handle(&self, stream: TcpStream) {
        let mut reader = BufReader::new(&stream);
        let mut writer = BufWriter::new(&stream);
        loop {
            let request = match protocol::read_request(&mut reader) {
                Ok(Some(request)) => request,
                // Clean EOF between frames: the client hung up.
                Ok(None) => return,
                Err(_) => {
                    drop(protocol::write_response(
                        &mut writer,
                        &Response::Err("malformed request".into()),
                    ));
                    return;
                }
            };
            let response = match request {
                Request::Resolve(entity) => match self.service.resolve(entity) {
                    Ok(reply) => Response::Resolved(reply),
                    Err(msg) => Response::Err(msg.into()),
                },
                Request::Ingest(ids) => match self.service.ingest(&ids) {
                    Ok(reply) => Response::Ingested(reply),
                    Err(err) => Response::Err(err.message().into()),
                },
                Request::Stats => Response::Stats(self.service.stats()),
                Request::Shutdown => {
                    drop(protocol::write_response(&mut writer, &Response::Bye));
                    self.shutdown();
                    return;
                }
            };
            if protocol::write_response(&mut writer, &response).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use minoan_blocking::ErMode;
    use minoan_datagen::{generate, profiles};
    use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
    use minoan_rdf::EntityId;

    const SCHEME: WeightingScheme = WeightingScheme::Js;
    const PRUNING: Pruning = Pruning::Wnp { reciprocal: false };

    #[test]
    fn end_to_end_resolve_ingest_stats_shutdown() {
        let g = generate(&profiles::center_dense(60, 3));
        let service = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 64);
        let server = Server::bind("127.0.0.1:0", service, 2).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|s| {
            let running = s.spawn(|| server.run());
            let mut client = Client::connect(addr).expect("connect to server");
            let ids: Vec<u32> = (0..g.dataset.len() as u32).collect();

            let ingested = client.ingest(&ids[..30]).expect("valid batch");
            assert_eq!(ingested.version, 1);
            assert_eq!(ingested.arrived, 30);

            let reply = client.resolve(7).expect("in-range resolve");
            assert_eq!(reply.version, 1);
            let mut reference = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
            reference.scheme(SCHEME).pruning(PRUNING);
            let batch: Vec<EntityId> = ids[..30].iter().map(|&e| EntityId(e)).collect();
            reference.ingest(&batch);
            let want = reference.resolve_entity(EntityId(7));
            assert_eq!(reply.weighted_pairs(), want.matches);

            // Same entity again: served from cache, identical answer.
            let again = client.resolve(7).expect("repeat resolve");
            assert_eq!(again, reply);

            let stats = client.stats().expect("stats");
            assert_eq!(stats.resolves, 2);
            assert_eq!(stats.cache_hits, 1);
            assert_eq!(stats.ingests, 1);
            assert_eq!(stats.num_arrived, 30);
            assert_eq!(stats.version, 1);

            client.shutdown().expect("clean shutdown");
            running
                .join()
                .expect("server thread exits")
                .expect("run returns ok");
        });
    }

    #[test]
    fn shutdown_does_not_wait_for_idle_clients() {
        let g = generate(&profiles::center_dense(30, 13));
        let service = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 8);
        let server = Server::bind("127.0.0.1:0", service, 2).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|s| {
            let running = s.spawn(|| server.run());
            // Connected, never sends a frame: a worker blocks reading it.
            let idle = TcpStream::connect(addr).expect("idle client connects");
            let mut client = Client::connect(addr).expect("connect to server");
            client.stats().expect("served beside the idle client");
            client.shutdown().expect("clean shutdown");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while !running.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let returned = running.is_finished();
            // Hang up before asserting, so a failure cannot hang the join.
            drop(idle);
            assert!(
                returned,
                "run must return while an idle client is connected"
            );
            running
                .join()
                .expect("server thread exits")
                .expect("run returns ok");
        });
    }

    #[test]
    fn service_errors_keep_the_connection_usable() {
        let g = generate(&profiles::center_dense(30, 11));
        let service = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 8);
        let server = Server::bind("127.0.0.1:0", service, 1).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|s| {
            let running = s.spawn(|| server.run());
            let mut client = Client::connect(addr).expect("connect to server");
            let out_of_range = g.dataset.len() as u32;
            assert!(client.resolve(out_of_range).is_err());
            assert!(client.ingest(&[0, 0]).is_err());
            // The connection survived both rejections.
            let stats = client.stats().expect("stats after errors");
            assert_eq!(stats.ingests, 0);
            assert_eq!(stats.num_arrived, 0);
            client.shutdown().expect("clean shutdown");
            running
                .join()
                .expect("server thread exits")
                .expect("run returns ok");
        });
    }
}
