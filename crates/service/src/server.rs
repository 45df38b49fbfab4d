//! Frontends for [`MatchingService`]: a batched in-process queue and a
//! `std::net` TCP listener speaking the [`wire`](crate::wire) frames.
//!
//! The in-process path is the primary one: a single worker thread owns
//! the service and drains the shared queue in FIFO batches of at most
//! [`ServiceConfig::max_batch`](crate::ServiceConfig::max_batch)
//! requests. Admission control happens at submit time — a client whose
//! request would push the queue past `queue_capacity` gets
//! [`Response::Overloaded`] immediately and the worker never sees it.
//! Because one thread applies all requests in arrival order, a single
//! client's trace always yields the same response sequence, whatever
//! the shard count or how many TCP connections multiplex onto the
//! queue.
//!
//! The TCP frontend is a thin adapter: one thread per connection reads
//! frames, decodes [`Request`]s (malformed bytes get a
//! [`Response::Error`], not a dropped connection), and forwards to the
//! same queue.
//!
//! However the worker ends — after [`ServiceServer::shutdown`], or by a
//! panic in [`MatchingService::handle`] — it closes the queue on the
//! way out: every queued request fails at once, and so does every
//! later one, instead of waiting for a worker that is gone.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

use crate::service::MatchingService;
use crate::wire::{read_frame, write_frame, Request, Response};

enum Job {
    Request {
        req: Request,
        reply: mpsc::Sender<Response>,
    },
    Shutdown,
}

/// The pending jobs, and whether the worker has ended, under one lock.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set once the worker has ended: no job is queued after that.
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    queue_capacity: usize,
    overloads: AtomicU64,
    batches_served: AtomicU64,
    max_batch_seen: AtomicU64,
}

impl Shared {
    fn new(queue_capacity: usize) -> Shared {
        Shared {
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            overloads: AtomicU64::new(0),
            batches_served: AtomicU64::new(0),
            max_batch_seen: AtomicU64::new(0),
        }
    }
}

/// A cloneable handle that submits requests to a running
/// [`ServiceServer`] and blocks for the response.
#[derive(Clone)]
pub struct ServiceClient {
    shared: Arc<Shared>,
}

impl ServiceClient {
    /// Submits `req` and waits for its response. Returns
    /// [`Response::Overloaded`] without queueing when admission control
    /// rejects the request, and a worker-terminated
    /// [`Response::Error`] at once when the worker has ended.
    pub fn request(&self, req: Request) -> Response {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.closed {
                return worker_terminated();
            }
            if q.jobs.len() >= self.shared.queue_capacity {
                self.shared.overloads.fetch_add(1, Ordering::Relaxed);
                return Response::Overloaded;
            }
            q.jobs.push_back(Job::Request { req, reply: tx });
        }
        self.shared.available.notify_one();
        rx.recv().unwrap_or_else(|_| worker_terminated())
    }

    /// Requests rejected at admission control so far.
    pub fn overload_rejections(&self) -> u64 {
        self.shared.overloads.load(Ordering::Relaxed)
    }

    /// Batches the worker has drained so far.
    pub fn batches_served(&self) -> u64 {
        self.shared.batches_served.load(Ordering::Relaxed)
    }

    /// Largest batch the worker has drained in one go.
    pub fn max_batch_seen(&self) -> u64 {
        self.shared.max_batch_seen.load(Ordering::Relaxed)
    }
}

/// The answer to a request the worker will never handle.
fn worker_terminated() -> Response {
    Response::Error("service worker terminated".to_string())
}

/// Closes the queue when the worker ends, on return and on unwind alike:
/// marks it closed and drops every queued job, whose reply channel then
/// fails the waiting client's `recv`.
struct CloseOnExit(Arc<Shared>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        // The lock is never held across `handle`, so a panicking worker
        // cannot have poisoned it; tolerate it anyway, this is the path
        // that must not fail.
        let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        q.jobs.clear();
    }
}

/// The in-process frontend: a worker thread owning a
/// [`MatchingService`] and draining a bounded FIFO queue in batches.
pub struct ServiceServer {
    client: ServiceClient,
    worker: thread::JoinHandle<MatchingService>,
}

impl ServiceServer {
    /// Spawns the worker thread. Queue capacity and batch size come
    /// from the service's [`ServiceConfig`](crate::ServiceConfig).
    pub fn spawn(mut service: MatchingService) -> ServiceServer {
        let max_batch = service.config().max_batch.max(1);
        let shared = Arc::new(Shared::new(service.config().queue_capacity));
        let worker_shared = Arc::clone(&shared);
        let worker = thread::spawn(move || {
            let _close = CloseOnExit(Arc::clone(&worker_shared));
            loop {
                let batch: Vec<Job> = {
                    let mut q = worker_shared.queue.lock().unwrap();
                    while q.jobs.is_empty() {
                        q = worker_shared.available.wait(q).unwrap();
                    }
                    let take = q.jobs.len().min(max_batch);
                    q.jobs.drain(..take).collect()
                };
                worker_shared.batches_served.fetch_add(1, Ordering::Relaxed);
                worker_shared
                    .max_batch_seen
                    .fetch_max(batch.len() as u64, Ordering::Relaxed);
                service.set_overload_rejections(worker_shared.overloads.load(Ordering::Relaxed));
                for job in batch {
                    match job {
                        Job::Shutdown => return service,
                        Job::Request { req, reply } => {
                            // A disconnected reply channel (client gave up)
                            // is fine; the state change still applies.
                            let _ = reply.send(service.handle(&req));
                        }
                    }
                }
            }
        });
        ServiceServer {
            client: ServiceClient { shared },
            worker,
        }
    }

    /// A handle for submitting requests; clone freely across threads.
    pub fn client(&self) -> ServiceClient {
        self.client.clone()
    }

    /// Stops the worker after the requests already queued ahead of the
    /// shutdown marker, returning the service for inspection. Requests
    /// queued after the marker get a worker-terminated error.
    pub fn shutdown(self) -> MatchingService {
        {
            let mut q = self.client.shared.queue.lock().unwrap();
            q.jobs.push_back(Job::Shutdown);
        }
        self.client.shared.available.notify_one();
        self.worker.join().expect("service worker panicked")
    }
}

/// The TCP frontend: accepts connections and forwards their framed
/// requests to an in-process [`ServiceClient`].
pub struct TcpFacade {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl TcpFacade {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral test port) and
    /// starts the accept loop.
    pub fn bind(addr: impl ToSocketAddrs, client: ServiceClient) -> io::Result<TcpFacade> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let accept_thread = thread::spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let per_conn = client.clone();
                thread::spawn(move || {
                    let _ = serve_connection(stream, &per_conn);
                });
            }
        });
        Ok(TcpFacade {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections (established ones drain on their
    /// own threads until the peer hangs up).
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept loop so it observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for TcpFacade {
    fn drop(&mut self) {
        self.halt();
    }
}

fn serve_connection(mut stream: TcpStream, client: &ServiceClient) -> io::Result<()> {
    loop {
        let Some(frame) = read_frame(&mut stream)? else {
            return Ok(());
        };
        let resp = match Request::decode(&frame) {
            Ok(req) => client.request(req),
            Err(e) => Response::Error(format!("malformed request: {e}")),
        };
        write_frame(&mut stream, &resp.encode())?;
    }
}

/// A blocking TCP client for the [`TcpFacade`], used by tests and the
/// load generator.
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connects to a [`TcpFacade`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        Ok(TcpClient {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Sends `req` as one frame and reads the response frame.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        Response::decode(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::wire::DeltaOp;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn spawn_gnp(n: usize, p: f64, seed: u64, config: ServiceConfig) -> ServiceServer {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = generators::gnp(n, p, &mut rng);
        generators::randomize_edge_weights(&mut g, 32, &mut rng);
        ServiceServer::spawn(MatchingService::new(g, config))
    }

    #[test]
    fn in_process_roundtrip_and_shutdown() {
        let server = spawn_gnp(20, 0.2, 60, ServiceConfig::default());
        let client = server.client();
        let fp = match client.request(Request::Fingerprint) {
            Response::FingerprintIs(fp) => fp,
            other => panic!("expected a fingerprint, got {other:?}"),
        };
        assert!(matches!(
            client.request(Request::MatchUsers { seed: 4 }),
            Response::Matching { fingerprint, cached: false, .. } if fingerprint == fp
        ));
        assert!(matches!(
            client.request(Request::MatchUsers { seed: 4 }),
            Response::Matching { cached: true, .. }
        ));
        let service = server.shutdown();
        assert_eq!(service.stats().requests_served, 3);
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let server = spawn_gnp(15, 0.25, 61, ServiceConfig::default());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let client = server.client();
                thread::spawn(move || {
                    (0..8u64)
                        .map(|i| {
                            client.request(Request::MatchUsers {
                                seed: t * 8 + i % 3,
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for resp in h.join().unwrap() {
                assert!(matches!(resp, Response::Matching { .. }), "got {resp:?}");
            }
        }
        let service = server.shutdown();
        assert_eq!(service.stats().requests_served, 32);
        assert!(server_stats_consistent(&service));
    }

    fn server_stats_consistent(service: &MatchingService) -> bool {
        service.stats().cache_hits + service.stats().cache_misses <= service.stats().requests_served
    }

    #[test]
    fn admission_control_rejects_past_capacity() {
        // Capacity 1 and a slow-to-start worker: fill the queue from
        // this thread while holding no lock the worker needs, then
        // check the second submission bounces.
        let server = spawn_gnp(
            10,
            0.2,
            62,
            ServiceConfig {
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
        );
        let client = server.client();
        // Stuff the queue directly: the lock keeps the worker from
        // draining between the two pushes.
        {
            let mut q = client.shared.queue.lock().unwrap();
            let (tx, _rx) = mpsc::channel();
            q.jobs.push_back(Job::Request {
                req: Request::Fingerprint,
                reply: tx,
            });
        }
        assert_eq!(client.request(Request::Fingerprint), Response::Overloaded);
        assert_eq!(client.overload_rejections(), 1);
        let service = server.shutdown();
        assert_eq!(service.stats().overload_rejections, 1);
    }

    /// Runs `client.request(req)` on its own thread: `None` if no
    /// response came within five seconds.
    fn request_within_5s(client: &ServiceClient, req: Request) -> Option<Response> {
        let (tx, rx) = mpsc::channel();
        let client = client.clone();
        thread::spawn(move || {
            let _ = tx.send(client.request(req));
        });
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    #[test]
    fn requests_after_shutdown_fail_promptly() {
        let server = spawn_gnp(12, 0.3, 64, ServiceConfig::default());
        let client = server.client();
        server.shutdown();
        assert_eq!(
            request_within_5s(&client, Request::Fingerprint),
            Some(worker_terminated())
        );
    }

    #[test]
    fn requests_queued_behind_shutdown_fail_promptly() {
        let server = spawn_gnp(12, 0.3, 65, ServiceConfig::default());
        let client = server.client();
        let (tx, rx) = mpsc::channel();
        {
            let mut q = client.shared.queue.lock().unwrap();
            q.jobs.push_back(Job::Shutdown);
            q.jobs.push_back(Job::Request {
                req: Request::Fingerprint,
                reply: tx,
            });
        }
        client.shared.available.notify_one();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "the queued request must fail, not wait"
        );
        assert_eq!(
            request_within_5s(&client, Request::Stats),
            Some(worker_terminated())
        );
        server.shutdown();
    }

    #[test]
    fn a_worker_that_panics_fails_queued_and_later_requests() {
        let shared = Arc::new(Shared::new(8));
        let client = ServiceClient {
            shared: Arc::clone(&shared),
        };
        let (tx, rx) = mpsc::channel();
        shared.queue.lock().unwrap().jobs.push_back(Job::Request {
            req: Request::Fingerprint,
            reply: tx,
        });
        let worker = thread::spawn(move || {
            let _close = CloseOnExit(shared);
            panic!("handle panicked");
        });
        assert!(worker.join().is_err());
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(mpsc::RecvTimeoutError::Disconnected)
        );
        assert_eq!(
            request_within_5s(&client, Request::Fingerprint),
            Some(worker_terminated())
        );
    }

    #[test]
    fn tcp_facade_serves_frames_and_survives_garbage() {
        let server = spawn_gnp(18, 0.2, 63, ServiceConfig::default());
        let Ok(facade) = TcpFacade::bind("127.0.0.1:0", server.client()) else {
            // Sandboxed environments may forbid binding; the in-process
            // path is covered elsewhere.
            server.shutdown();
            return;
        };
        let mut client = TcpClient::connect(facade.local_addr()).unwrap();
        let resp = client.request(&Request::MisQuery { seed: 3 }).unwrap();
        assert!(matches!(resp, Response::Mis { cached: false, .. }));
        let resp = client
            .request(&Request::ApplyDeltas {
                ops: vec![DeltaOp::AddNode(2)],
            })
            .unwrap();
        assert!(matches!(resp, Response::Applied { .. }));

        // A garbage frame gets an Error response, not a hangup.
        write_frame(&mut client.stream, &[250, 1, 2, 3]).unwrap();
        let frame = read_frame(&mut client.stream).unwrap().unwrap();
        assert!(matches!(Response::decode(&frame), Ok(Response::Error(_))));

        // The connection still works afterwards.
        let resp = client.request(&Request::Fingerprint).unwrap();
        assert!(matches!(resp, Response::FingerprintIs(_)));

        facade.stop();
        server.shutdown();
    }
}
